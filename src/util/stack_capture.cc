#include "util/stack_capture.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__linux__) && __has_include(<execinfo.h>) && \
    __has_include(<dlfcn.h>)
#define LTEE_HAS_STACK_CAPTURE 1
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#else
#define LTEE_HAS_STACK_CAPTURE 0
#endif

namespace ltee::util {

bool StackCaptureSupported() { return LTEE_HAS_STACK_CAPTURE != 0; }

#if LTEE_HAS_STACK_CAPTURE

void WarmUpStackCapture() {
  static std::atomic<bool> warmed{false};
  if (warmed.load(std::memory_order_acquire)) return;
  // First backtrace dlopens libgcc_s (unwinder), first dladdr touches the
  // link map; both must happen outside signal context exactly once.
  void* frames[4];
  ::backtrace(frames, 4);
  Dl_info info;
  ::dladdr(reinterpret_cast<void*>(&WarmUpStackCapture), &info);
  warmed.store(true, std::memory_order_release);
}

int CaptureStack(void** frames, int max_depth, int skip) {
  if (max_depth <= 0) return 0;
  // Capture into a scratch buffer large enough to still fill max_depth
  // after dropping CaptureStack's own frame, any frames an interposed
  // backtrace adds (sanitizer builds), and the caller's `skip`.
  void* scratch[kMaxStackDepth + 8];
  constexpr int kScratch = static_cast<int>(sizeof(scratch) / sizeof(void*));
  const int depth = ::backtrace(scratch, kScratch);
  // The caller's frame is the one holding our return address; when no
  // frame matches, assume CaptureStack's frame is the only one to drop
  // (separate TU, never inlined).
  const void* caller = __builtin_return_address(0);
  int first = 1;
  for (int i = 0; i < depth; ++i) {
    if (scratch[i] == caller) {
      first = i;
      break;
    }
  }
  first += skip;
  if (depth <= first) return 0;
  const int kept = depth - first < max_depth ? depth - first : max_depth;
  std::memcpy(frames, scratch + first, sizeof(void*) * kept);
  return kept;
}

std::string DemangleSymbol(const std::string& mangled) {
  int status = 0;
  char* demangled =
      abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
  if (status != 0 || demangled == nullptr) {
    std::free(demangled);
    return mangled;
  }
  std::string out(demangled);
  std::free(demangled);
  return out;
}

SymbolizedFrame SymbolizeAddress(const void* pc) {
  SymbolizedFrame frame;
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    frame.name = DemangleSymbol(info.dli_sname);
    frame.known = true;
    return frame;
  }
  if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
    // Mapped module without an exported symbol: basename+offset keeps
    // distinct addresses distinguishable in a flamegraph.
    const char* base = std::strrchr(info.dli_fname, '/');
    const char* module = base != nullptr ? base + 1 : info.dli_fname;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s+0x%zx", module,
                  reinterpret_cast<uintptr_t>(pc) -
                      reinterpret_cast<uintptr_t>(info.dli_fbase));
    frame.name = buf;
    return frame;
  }
  frame.name = "[unknown]";
  return frame;
}

#else  // !LTEE_HAS_STACK_CAPTURE

void WarmUpStackCapture() {}

int CaptureStack(void**, int, int) { return 0; }

std::string DemangleSymbol(const std::string& mangled) { return mangled; }

SymbolizedFrame SymbolizeAddress(const void*) {
  SymbolizedFrame frame;
  frame.name = "[unsupported]";
  return frame;
}

#endif  // LTEE_HAS_STACK_CAPTURE

}  // namespace ltee::util
