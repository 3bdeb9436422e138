// Status tests (common/status.h): stable code names, and the wire's
// ErrorCode as the one spelling of StatusCode — several frame-shell codes
// collapse onto one Status class, so a round-trip through Status may move
// a code to its class representative, and a second round-trip must be the
// identity (the mapping is idempotent).
#include "mcsort/common/status.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/net/wire.h"

namespace mcsort {
namespace {

TEST(StatusTest, BasicsAndNames) {
  const Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_STREQ(ok.name(), "ok");
  EXPECT_EQ(ok.ToString(), "ok");

  const Status loss = Status::DataLoss("crc mismatch in block 3");
  EXPECT_FALSE(loss.ok());
  EXPECT_STREQ(loss.name(), "data_loss");
  EXPECT_EQ(loss.ToString(), "data_loss: crc mismatch in block 3");

  const Status bare(StatusCode::kUnavailable, "");
  EXPECT_EQ(bare.ToString(), "unavailable");

  // Every code has a distinct stable name (metrics keys depend on it).
  std::vector<std::string> names;
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    names.emplace_back(StatusCodeName(static_cast<StatusCode>(c)));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_NE(names[i], "unknown");
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(StatusTest, ErrorCodeQuotient) {
  // The wire collapses several frame-shell codes into one Status class;
  // the contract is idempotence: one round-trip may move a code to its
  // class representative, a second round-trip must be the identity.
  const std::vector<net::ErrorCode> all = {
      net::ErrorCode::kNone,           net::ErrorCode::kMalformedFrame,
      net::ErrorCode::kCrcMismatch,    net::ErrorCode::kUnsupportedVersion,
      net::ErrorCode::kOversizedFrame, net::ErrorCode::kUnknownType,
      net::ErrorCode::kMalformedQuery, net::ErrorCode::kBadQuery,
      net::ErrorCode::kBusy,           net::ErrorCode::kCancelled,
      net::ErrorCode::kDeadlineExceeded,
      net::ErrorCode::kResourceExhausted,
      net::ErrorCode::kShuttingDown,   net::ErrorCode::kProtocolViolation,
      net::ErrorCode::kUnknownTable,   net::ErrorCode::kInternal,
      net::ErrorCode::kIoError};
  for (const net::ErrorCode code : all) {
    const net::ErrorCode canonical =
        net::ToErrorCode(net::ToStatus(code, "d"));
    EXPECT_EQ(net::ToErrorCode(net::ToStatus(canonical, "d")), canonical)
        << net::ErrorCodeName(code);
    // Same Status class both ways: the collapse loses no severity.
    EXPECT_EQ(net::ToStatus(code, "").code, net::ToStatus(canonical, "").code);
  }
  // The executor-facing codes the client branches on round-trip exactly.
  for (const net::ErrorCode code :
       {net::ErrorCode::kNone, net::ErrorCode::kCancelled,
        net::ErrorCode::kDeadlineExceeded, net::ErrorCode::kResourceExhausted,
        net::ErrorCode::kCrcMismatch, net::ErrorCode::kUnknownTable,
        net::ErrorCode::kIoError, net::ErrorCode::kInternal}) {
    EXPECT_EQ(net::ToErrorCode(net::ToStatus(code, "d")), code);
  }
}

}  // namespace
}  // namespace mcsort
