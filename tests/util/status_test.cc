#include "util/status.h"

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace pfql {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad column");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad column");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad column");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::ResourceExhausted("").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::ParseError("").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::TypeError("").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  PFQL_ASSIGN_OR_RETURN(int h, Half(x));
  PFQL_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

Status NeedsEven(int x) {
  PFQL_RETURN_NOT_OK(Half(x).status());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(NeedsEven(4).ok());
  EXPECT_FALSE(NeedsEven(3).ok());
}

TEST(StringUtilTest, JoinStrings) {
  std::vector<std::string> v{"a", "b", "c"};
  EXPECT_EQ(JoinStrings(v, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings(std::vector<std::string>{}, ","), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("__old1", "__"));
  EXPECT_FALSE(StartsWith("_old1", "__"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

}  // namespace
}  // namespace pfql
