#include <gtest/gtest.h>

#include "types/data_type.h"
#include "types/type_similarity.h"
#include "types/value.h"
#include "types/value_parser.h"

namespace ltee::types {
namespace {

// ---------------------------------------------------------------------------
// Value factories and rendering
// ---------------------------------------------------------------------------

TEST(ValueTest, FactoriesSetTypeAndPayload) {
  EXPECT_EQ(Value::Text("x").type, DataType::kText);
  EXPECT_EQ(Value::Nominal("x").type, DataType::kNominalString);
  EXPECT_EQ(Value::InstanceRef("x", 5).ref, 5);
  EXPECT_DOUBLE_EQ(Value::OfQuantity(2.5).number, 2.5);
  EXPECT_EQ(Value::OfInteger(7).integer, 7);
  EXPECT_EQ(Value::YearDate(1999).date.granularity, DateGranularity::kYear);
  EXPECT_EQ(Value::DayDate(1999, 3, 4).date.month, 3);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Text("abc").ToString(), "abc");
  EXPECT_EQ(Value::InstanceRef("team").ToString(), "@team");
  EXPECT_EQ(Value::YearDate(1987).ToString(), "1987");
  EXPECT_EQ(Value::DayDate(1987, 6, 5).ToString(), "1987-06-05");
  EXPECT_EQ(Value::OfQuantity(42).ToString(), "42");
  EXPECT_EQ(Value::OfInteger(-3).ToString(), "-3");
}

// ---------------------------------------------------------------------------
// Date parsing (parameterized over surface forms)
// ---------------------------------------------------------------------------

struct DateCase {
  const char* input;
  int year, month, day;
  DateGranularity granularity;
};

// Without a printer gtest dumps the raw bytes of the case, pointer included,
// so the discovered test names would change with every process start.
void PrintTo(const DateCase& c, std::ostream* os) {
  *os << '"' << c.input << '"';
}

class DateParseTest : public ::testing::TestWithParam<DateCase> {};

TEST_P(DateParseTest, ParsesSurfaceForm) {
  const DateCase& c = GetParam();
  auto d = ParseDate(c.input);
  ASSERT_TRUE(d.has_value()) << c.input;
  EXPECT_EQ(d->year, c.year);
  EXPECT_EQ(d->granularity, c.granularity);
  if (c.granularity == DateGranularity::kDay) {
    EXPECT_EQ(d->month, c.month);
    EXPECT_EQ(d->day, c.day);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, DateParseTest,
    ::testing::Values(
        DateCase{"1987", 1987, 0, 0, DateGranularity::kYear},
        DateCase{"1987-06-05", 1987, 6, 5, DateGranularity::kDay},
        DateCase{"6/5/1987", 1987, 6, 5, DateGranularity::kDay},
        DateCase{"June 5, 1987", 1987, 6, 5, DateGranularity::kDay},
        DateCase{"5 June 1987", 1987, 6, 5, DateGranularity::kDay},
        DateCase{"Sep 1, 2001", 2001, 9, 1, DateGranularity::kDay},
        DateCase{"  2004 ", 2004, 0, 0, DateGranularity::kYear}));

TEST(DateParseTest, RejectsNonDates) {
  EXPECT_FALSE(ParseDate("hello").has_value());
  EXPECT_FALSE(ParseDate("123").has_value());      // 3-digit number
  EXPECT_FALSE(ParseDate("9999").has_value());     // outside year range
  EXPECT_FALSE(ParseDate("13/45/1987").has_value());  // invalid month/day
  EXPECT_FALSE(ParseDate("").has_value());
}

// ---------------------------------------------------------------------------
// Cell classification and column type detection
// ---------------------------------------------------------------------------

TEST(ClassifyCellTest, RoutesToDetectedTypes) {
  EXPECT_EQ(ClassifyCell("1987-06-05").type, DetectedType::kDate);
  EXPECT_EQ(ClassifyCell("1,234").type, DetectedType::kQuantity);
  EXPECT_EQ(ClassifyCell("Springfield").type, DetectedType::kText);
  // A bare plausible year counts as a date, not a quantity.
  EXPECT_EQ(ClassifyCell("1987").type, DetectedType::kDate);
}

TEST(DetectColumnTypeTest, MajorityVoteIgnoringEmptyCells) {
  EXPECT_EQ(DetectColumnType({"12", "34", "abc", ""}), DetectedType::kQuantity);
  EXPECT_EQ(DetectColumnType({"June 5, 1987", "1990", "x"}),
            DetectedType::kDate);
  EXPECT_EQ(DetectColumnType({"", "", ""}), DetectedType::kText);
}

TEST(DetectColumnTypeTest, TieBreaksTowardText) {
  EXPECT_EQ(DetectColumnType({"abc", "123"}), DetectedType::kText);
}

// ---------------------------------------------------------------------------
// Normalization to semantic types
// ---------------------------------------------------------------------------

TEST(NormalizeCellTest, TextAndNominalNormalizeLabels) {
  EXPECT_EQ(NormalizeCell("  The Song! ", DataType::kText)->text, "the song");
  EXPECT_EQ(NormalizeCell("QB", DataType::kNominalString)->text, "qb");
  EXPECT_EQ(NormalizeCell("Dallas Cowboys", DataType::kInstanceReference)->text,
            "dallas cowboys");
}

TEST(NormalizeCellTest, QuantityAndIntegerParsing) {
  EXPECT_DOUBLE_EQ(NormalizeCell("1,234 m", DataType::kQuantity)->number,
                   1234.0);
  EXPECT_EQ(NormalizeCell("42", DataType::kNominalInteger)->integer, 42);
  EXPECT_FALSE(NormalizeCell("4.5", DataType::kNominalInteger).has_value());
  EXPECT_FALSE(NormalizeCell("abc", DataType::kQuantity).has_value());
}

TEST(NormalizeCellTest, DateParsingAndFailures) {
  EXPECT_EQ(NormalizeCell("6/5/1987", DataType::kDate)->date.year, 1987);
  EXPECT_FALSE(NormalizeCell("not a date", DataType::kDate).has_value());
  EXPECT_FALSE(NormalizeCell("", DataType::kDate).has_value());
}

// ---------------------------------------------------------------------------
// Type-specific similarity and equality thresholds
// ---------------------------------------------------------------------------

TEST(ValueSimilarityTest, MismatchedTypesScoreZero) {
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Value::Text("1987"), Value::YearDate(1987)), 0.0);
}

TEST(ValueSimilarityTest, TextUsesMongeElkan) {
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Value::Text("john smith"), Value::Text("john smith")),
      1.0);
  EXPECT_GT(
      ValueSimilarity(Value::Text("jon smith"), Value::Text("john smith")),
      0.8);
}

TEST(ValueSimilarityTest, NominalIsExact) {
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Value::Nominal("qb"), Value::Nominal("qb")), 1.0);
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Value::Nominal("qb"), Value::Nominal("rb")), 0.0);
}

TEST(ValueSimilarityTest, ResolvedReferencesCompareByIds) {
  EXPECT_DOUBLE_EQ(ValueSimilarity(Value::InstanceRef("a", 1),
                                   Value::InstanceRef("b", 1)),
                   1.0);
  EXPECT_DOUBLE_EQ(ValueSimilarity(Value::InstanceRef("same", 1),
                                   Value::InstanceRef("same", 2)),
                   0.0);
}

TEST(ValueSimilarityTest, DateGranularityAware) {
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Value::YearDate(1987), Value::YearDate(1987)), 1.0);
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Value::YearDate(1987), Value::DayDate(1987, 1, 2)), 0.5);
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Value::DayDate(1987, 1, 2), Value::DayDate(1987, 1, 2)),
      1.0);
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Value::YearDate(1987), Value::YearDate(1990)), 0.0);
}

TEST(ValueSimilarityTest, QuantityRelativeCloseness) {
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Value::OfQuantity(100), Value::OfQuantity(100)), 1.0);
  EXPECT_NEAR(ValueSimilarity(Value::OfQuantity(90), Value::OfQuantity(100)),
              0.9, 1e-9);
  EXPECT_DOUBLE_EQ(
      ValueSimilarity(Value::OfQuantity(0), Value::OfQuantity(0)), 1.0);
}

struct EqualityCase {
  Value a, b;
  bool equal;
};

void PrintTo(const EqualityCase& c, std::ostream* os) {
  *os << DataTypeName(c.a.type) << " \"" << c.a.ToString() << "\" vs \""
      << c.b.ToString() << "\" " << (c.equal ? "equal" : "unequal");
}

class ValuesEqualTest : public ::testing::TestWithParam<EqualityCase> {};

TEST_P(ValuesEqualTest, AppliesEquivalenceThreshold) {
  const EqualityCase& c = GetParam();
  EXPECT_EQ(ValuesEqual(c.a, c.b), c.equal);
  EXPECT_EQ(ValuesEqual(c.b, c.a), c.equal);  // symmetry
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, ValuesEqualTest,
    ::testing::Values(
        EqualityCase{Value::Text("john smith"), Value::Text("john smith"),
                     true},
        EqualityCase{Value::Text("jon smith"), Value::Text("john smith"),
                     true},  // above the 0.85 threshold
        EqualityCase{Value::Text("springfield"), Value::Text("tokyo"), false},
        EqualityCase{Value::Nominal("12345"), Value::Nominal("12345"), true},
        EqualityCase{Value::Nominal("12345"), Value::Nominal("12346"), false},
        EqualityCase{Value::OfQuantity(1000), Value::OfQuantity(1020),
                     true},  // within 2.5 % tolerance
        EqualityCase{Value::OfQuantity(1000), Value::OfQuantity(1100), false},
        EqualityCase{Value::OfInteger(7), Value::OfInteger(7), true},
        EqualityCase{Value::OfInteger(7), Value::OfInteger(8), false},
        EqualityCase{Value::YearDate(1987), Value::DayDate(1987, 5, 5), true},
        EqualityCase{Value::DayDate(1987, 5, 5), Value::DayDate(1987, 5, 6),
                     false},
        EqualityCase{Value::YearDate(1987), Value::YearDate(1988), false}));

TEST(ValuesEqualTest, QuantityToleranceIsConfigurable) {
  TypeSimilarityOptions strict;
  strict.quantity_tolerance = 0.0;
  EXPECT_FALSE(
      ValuesEqual(Value::OfQuantity(1000), Value::OfQuantity(1001), strict));
  TypeSimilarityOptions loose;
  loose.quantity_tolerance = 0.5;
  EXPECT_TRUE(
      ValuesEqual(Value::OfQuantity(1000), Value::OfQuantity(1400), loose));
}

// ---------------------------------------------------------------------------
// Detected-type -> candidate-property admission rule
// ---------------------------------------------------------------------------

TEST(DetectedTypeAdmitsPropertyTest, MatchesPaperRules) {
  // Text attributes: instance reference, nominal string, text.
  EXPECT_TRUE(DetectedTypeAdmitsProperty(DetectedType::kText,
                                         DataType::kInstanceReference));
  EXPECT_TRUE(DetectedTypeAdmitsProperty(DetectedType::kText,
                                         DataType::kNominalString));
  EXPECT_TRUE(DetectedTypeAdmitsProperty(DetectedType::kText, DataType::kText));
  EXPECT_FALSE(
      DetectedTypeAdmitsProperty(DetectedType::kText, DataType::kQuantity));
  // Quantity attributes: quantity, nominal integer.
  EXPECT_TRUE(DetectedTypeAdmitsProperty(DetectedType::kQuantity,
                                         DataType::kQuantity));
  EXPECT_TRUE(DetectedTypeAdmitsProperty(DetectedType::kQuantity,
                                         DataType::kNominalInteger));
  EXPECT_FALSE(
      DetectedTypeAdmitsProperty(DetectedType::kQuantity, DataType::kDate));
  // Date attributes: date, quantity, nominal integer.
  EXPECT_TRUE(DetectedTypeAdmitsProperty(DetectedType::kDate, DataType::kDate));
  EXPECT_TRUE(
      DetectedTypeAdmitsProperty(DetectedType::kDate, DataType::kQuantity));
  EXPECT_TRUE(DetectedTypeAdmitsProperty(DetectedType::kDate,
                                         DataType::kNominalInteger));
  EXPECT_FALSE(
      DetectedTypeAdmitsProperty(DetectedType::kDate, DataType::kText));
}

}  // namespace
}  // namespace ltee::types
