#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/args.h"

namespace locpriv::io {
namespace {

ArgParser make_parser() {
  ArgParser p("demo", "demo command");
  p.add({.name = "data", .help = "input", .required = true})
      .add({.name = "trials", .help = "count", .default_value = "3"})
      .add({.name = "verbose", .help = "chatty", .is_flag = true})
      .add({.name = "rate", .help = "a double"});
  return p;
}

TEST(Args, SpaceAndEqualsSyntax) {
  const ArgParser p = make_parser();
  const ParsedArgs a = p.parse({"--data", "file.csv", "--rate=0.5"});
  EXPECT_EQ(a.get("data"), "file.csv");
  EXPECT_DOUBLE_EQ(a.get_double("rate"), 0.5);
}

TEST(Args, DefaultsApplied) {
  const ArgParser p = make_parser();
  const ParsedArgs a = p.parse({"--data", "x"});
  EXPECT_EQ(a.get_int("trials"), 3);
  EXPECT_FALSE(a.get_flag("verbose"));
  EXPECT_FALSE(a.has("rate"));
}

TEST(Args, FlagsPresenceOnly) {
  const ArgParser p = make_parser();
  const ParsedArgs a = p.parse({"--data", "x", "--verbose"});
  EXPECT_TRUE(a.get_flag("verbose"));
  EXPECT_THROW((void)p.parse({"--data", "x", "--verbose=yes"}), std::runtime_error);
}

TEST(Args, RequiredEnforced) {
  const ArgParser p = make_parser();
  EXPECT_THROW((void)p.parse({}), std::runtime_error);
  try {
    (void)p.parse({"--trials", "5"});
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--data"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("usage"), std::string::npos);
  }
}

TEST(Args, UnknownOptionRejectedWithUsage) {
  const ArgParser p = make_parser();
  try {
    (void)p.parse({"--data", "x", "--oops", "1"});
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--oops"), std::string::npos);
  }
}

TEST(Args, MissingValueRejected) {
  const ArgParser p = make_parser();
  EXPECT_THROW((void)p.parse({"--data"}), std::runtime_error);
}

TEST(Args, TypeConversionErrorsAreClear) {
  const ArgParser p = make_parser();
  const ParsedArgs a = p.parse({"--data", "x", "--rate", "abc", "--trials", "2.5"});
  EXPECT_THROW((void)a.get_double("rate"), std::runtime_error);
  EXPECT_THROW((void)a.get_int("trials"), std::runtime_error);
  // A negative count is an error naming the option, not a huge size_t.
  const ParsedArgs negative = p.parse({"--data", "x", "--trials", "-1"});
  EXPECT_EQ(negative.get_int("trials"), -1);
  try {
    (void)negative.get_count("trials");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--trials"), std::string::npos);
  }
  EXPECT_EQ(p.parse({"--data", "x"}).get_count("trials"), 3u);
}

TEST(Args, PositionalCollected) {
  const ArgParser p = make_parser();
  const ParsedArgs a = p.parse({"pos1", "--data", "x", "pos2"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "pos1");
  EXPECT_EQ(a.positional()[1], "pos2");
}

TEST(Args, DeclarationErrorsAreLogicErrors) {
  ArgParser p("demo", "demo");
  p.add({.name = "x", .help = ""});
  EXPECT_THROW(p.add({.name = "x", .help = ""}), std::logic_error);
  EXPECT_THROW(p.add({.name = "y", .help = "", .required = true, .default_value = "1"}),
               std::logic_error);
  EXPECT_THROW(p.add({.name = "z", .help = "", .is_flag = true, .default_value = "1"}),
               std::logic_error);
}

TEST(Args, UsageListsOptions) {
  const std::string usage = make_parser().usage();
  EXPECT_NE(usage.find("--data"), std::string::npos);
  EXPECT_NE(usage.find("(required)"), std::string::npos);
  EXPECT_NE(usage.find("default: 3"), std::string::npos);
}

/// Captures everything written to std::cerr for the enclosing scope.
class CerrCapture {
 public:
  CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
  ~CerrCapture() { std::cerr.rdbuf(old_); }
  [[nodiscard]] std::string text() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  std::streambuf* old_;
};

TEST(Args, CanonicalSpellingNeverWarns) {
  ArgParser p("demo", "demo");
  p.add({.name = "gamma", .help = "", .default_value = "0"});
  const CerrCapture capture;
  (void)p.parse({"--gamma", "1"});
  EXPECT_TRUE(capture.text().empty()) << capture.text();
}

}  // namespace
}  // namespace locpriv::io
