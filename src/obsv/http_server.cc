#include "obsv/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obsv/access_log.h"
#include "obsv/telemetry.h"
#include "obsv/trace_context.h"
#include "util/logging.h"
#include "util/trace.h"

namespace ltee::obsv {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

void SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer went away; nothing useful to do
    }
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

std::string HttpRequest::Header(std::string_view name) const {
  for (const auto& [header_name, value] : headers) {
    if (header_name == name) return value;
  }
  return "";
}

std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < end &&
        query.compare(pos, eq - pos, key) == 0) {
      std::string out;
      for (size_t i = eq + 1; i < end; ++i) {
        const char c = query[i];
        if (c == '+') {
          out.push_back(' ');
        } else if (c == '%' && i + 2 < end) {
          const auto hex = [](char h) -> int {
            if (h >= '0' && h <= '9') return h - '0';
            if (h >= 'a' && h <= 'f') return h - 'a' + 10;
            if (h >= 'A' && h <= 'F') return h - 'A' + 10;
            return -1;
          };
          const int hi = hex(query[i + 1]), lo = hex(query[i + 2]);
          if (hi >= 0 && lo >= 0) {
            out.push_back(static_cast<char>(hi * 16 + lo));
            i += 2;
          } else {
            out.push_back(c);
          }
        } else {
          out.push_back(c);
        }
      }
      return out;
    }
    pos = end + 1;
  }
  return "";
}

HttpServer::HttpServer(size_t num_workers)
    : num_workers_(num_workers == 0 ? 1 : num_workers) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(std::string path, HttpHandler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

bool HttpServer::Start(uint16_t port, std::string* error) {
  if (running_.load()) {
    if (error != nullptr) *error = "server already running";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }

  pool_ = std::make_unique<util::ThreadPool>(num_workers_);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  LTEE_LOG(kInfo) << "http server listening on port " << port_
                  << (port == 0 ? " (ephemeral)" : "");
  return true;
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  // shutdown() unblocks the accept(2) in the accept thread; close alone
  // is not guaranteed to.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  pool_->Wait();
  pool_.reset();
}

void HttpServer::AcceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load()) break;
      LTEE_LOG(kWarning) << "status server accept failed: "
                         << std::strerror(errno);
      break;
    }
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    pool_->Submit([this, fd] { ServeConnection(fd); });
  }
}

void HttpServer::ServeConnection(int fd) {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  const auto request_start = std::chrono::steady_clock::now();

  // Read until the end of the request head. Requests are tiny
  // (`GET /path HTTP/1.1` + a few headers); 8 KiB is a generous cap.
  std::string request;
  char buf[2048];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<size_t>(n));
  }

  HttpResponse response;
  const size_t line_end = request.find_first_of("\r\n");
  std::string method, target, version;
  if (line_end != std::string::npos) {
    const std::string line = request.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                : line.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      method = line.substr(0, sp1);
      target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      version = line.substr(sp2 + 1);
    }
  }
  HttpRequest http_request;
  http_request.method = method;
  const std::string raw_target = target;
  if (const size_t q = target.find('?'); q != std::string::npos) {
    http_request.query = target.substr(q + 1);
    target.resize(q);
  }
  http_request.path = target;

  // Header fields after the request line, names lowercased. A field that
  // does not parse (no colon) is skipped rather than failing the request
  // — the handlers only ever look up well-known names.
  size_t cursor = request.find('\n', line_end == std::string::npos
                                        ? 0
                                        : line_end);
  while (cursor != std::string::npos && cursor + 1 < request.size()) {
    const size_t start = cursor + 1;
    size_t end = request.find('\n', start);
    if (end == std::string::npos) end = request.size();
    size_t len = end - start;
    if (len > 0 && request[start + len - 1] == '\r') --len;
    if (len == 0) break;  // blank line: end of head
    const std::string_view field(request.data() + start, len);
    if (const size_t colon = field.find(':'); colon != std::string_view::npos) {
      std::string name;
      name.reserve(colon);
      for (char c : field.substr(0, colon)) {
        name.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      }
      std::string_view value = field.substr(colon + 1);
      while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
        value.remove_prefix(1);
      }
      while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
        value.remove_suffix(1);
      }
      http_request.headers.emplace_back(std::move(name), std::string(value));
    }
    cursor = end;
  }

  // Request-scoped trace context: continue the caller's trace when a
  // valid traceparent arrived; a malformed or absent header starts a
  // fresh trace (never reuse garbage, never fail the request over it).
  TraceContext trace_context;
  if (auto child = ChildFromTraceparent(http_request.Header("traceparent"));
      child.has_value()) {
    trace_context = std::move(*child);
  } else {
    trace_context = MakeRootContext();
  }
  http_request.trace_id = trace_context.trace_id;

  const double read_ms = MsSince(request_start);
  const auto handle_start = std::chrono::steady_clock::now();
  {
    TraceContextScope trace_scope(trace_context);
    util::trace::ScopedSpan span("http.request", "http");

    // RFC 9112 request line: `method SP request-target SP HTTP-version`.
    // Anything that does not parse into those three shapes — missing
    // tokens, a version that is not HTTP/*, a target that is not
    // origin-form — gets an explicit 400 rather than a silently dropped
    // connection, so misbehaving clients see what went wrong.
    if (method.empty() || target.empty() ||
        version.rfind("HTTP/", 0) != 0 || target[0] != '/') {
      response.status = 400;
      response.body = "malformed request line\n";
    } else if (method != "GET" && method != "HEAD") {
      // RFC 9110: a 405 must name the allowed methods.
      response.status = 405;
      response.body = "only GET is supported\n";
      response.headers.emplace_back("Allow", "GET");
    } else {
      auto it = handlers_.find(target);
      if (it == handlers_.end()) {
        response.status = 404;
        response.body = "unknown endpoint: " + target + "\n";
      } else {
        response = it->second(http_request);
      }
    }
    span.AddArg("method", method.empty() ? std::string("?") : method);
    span.AddArg("target", raw_target);
    span.AddArg("status", response.status);
  }
  const double handle_ms = MsSince(handle_start);
  const auto write_start = std::chrono::steady_clock::now();

  // Every response names the trace it belongs to, so callers can join
  // their side of a request with the server's access log and spans.
  response.headers.emplace_back("traceparent",
                                trace_context.ToTraceparent());

  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     StatusText(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size());
  for (const auto& [name, value] : response.headers) {
    head += "\r\n" + name + ": " + value;
  }
  head += "\r\nConnection: close\r\n\r\n";
  SendAll(fd, head);
  if (method != "HEAD") SendAll(fd, response.body);

  const double write_ms = MsSince(write_start);
  AccessEntry entry;
  entry.unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  entry.method = method;
  entry.target = raw_target;
  entry.status = response.status;
  entry.read_ms = read_ms;
  entry.handle_ms = handle_ms;
  entry.write_ms = write_ms;
  entry.total_ms = read_ms + handle_ms + write_ms;
  entry.trace_id = trace_context.trace_id;
  entry.response_bytes = response.body.size();
  {
    // Recorded under the request's context so a slow-request WARNING
    // line carries the trace id.
    TraceContextScope trace_scope(trace_context);
    GlobalAccessLog().Record(std::move(entry));
  }
  GlobalRequestTelemetry().ObserveRequest(read_ms + handle_ms + write_ms);
  // Recorded before the close: the client sees the end of its response
  // only then, so a follow-up /stats already counts this request.
  ::shutdown(fd, SHUT_WR);
  // Drain whatever the peer still sends so the close is graceful, then
  // close.
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace ltee::obsv
