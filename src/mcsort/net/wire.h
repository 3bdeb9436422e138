// Byte-level wire format of the mcsort network protocol — the shared
// vocabulary of McsortServer, McsortClient, and the tools.
//
// Every message is one length-prefixed frame:
//
//   offset  size  field
//   ------  ----  ---------------------------------------------------
//        0     4  magic        'M''C''S''1' (kMagic, little-endian)
//        4     1  version      kProtocolVersion (currently 2)
//        5     1  type         FrameType
//        6     2  flags        FrameFlags (kFlagLastChunk on RESULT)
//        8     4  payload_len  bytes following the header (<= max)
//       12     4  payload_crc  CRC32C (Castagnoli) of the payload bytes
//       16     8  request_id   client-chosen correlation id, echoed on
//                              every frame the server sends in response
//
// All integers are little-endian. The payload encoding per frame type
// lives in protocol.h; this header owns only the frame shell, the CRC,
// and the primitive codec (WireWriter / WireReader).
//
// Versioning: a server that receives a frame whose `version` it does not
// speak answers ERROR kUnsupportedVersion and closes — the magic+version
// pair is the only part of the format frozen across protocol revisions.
#ifndef MCSORT_NET_WIRE_H_
#define MCSORT_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "mcsort/common/status.h"

namespace mcsort {
namespace net {

constexpr uint32_t kMagic = 0x3153434Du;  // "MCS1" as a little-endian u32
// Protocol revision history:
//   1  PR 4: HELLO/QUERY/RESULT/SCHEMA/SAVE/LOAD as originally shipped.
//   2  distributed tier: HELLO carries a capability bitmask (and the ACK
//      echoes the server's minimum accepted version), QUERY carries
//      fixed_column_order / merge_fan_in / want_merge_keys, RESULT grows
//      the merge-key / group-size / global-oid sections (ids 6-9).
//   3  write path: DML/DML_REPLY frames (INSERT/UPDATE/DELETE with typed
//      per-row errors), SCHEMA grows per-table epoch + delta_rows.
// Each revision's payloads are not a superset older peers can skip
// (QUERY/SCHEMA decoding is strict-length), so the minimum accepted
// version tracks the current one; peers outside
// [kMinProtocolVersion, kProtocolVersion] get a typed
// kUnsupportedVersion rejection at HELLO.
constexpr uint8_t kProtocolVersion = 3;
constexpr uint8_t kMinProtocolVersion = 3;

// Capability bits negotiated in HELLO (a peer must tolerate unknown bits:
// they advertise features, they never change existing encodings).
constexpr uint32_t kCapMergeKeys = 1u << 0;  // server: RESULT sections 6-9
constexpr size_t kHeaderSize = 24;
// Hard protocol ceiling on one frame's payload; the server's own cap
// (kMaxPayloadBytes in server.cc) is lower.
constexpr size_t kMaxPayloadCap = size_t{1} << 26;  // 64 MiB

enum class FrameType : uint8_t {
  kHello = 1,     // client -> server: version + client name
  kHelloAck = 2,  // server -> client: version + server name + default table
  kQuery = 3,     // client -> server: deadline + table + QuerySpec
  kResult = 4,    // server -> client: chunked result stream
  kError = 5,     // server -> client: typed error (ErrorCode + detail)
  kCancel = 6,    // client -> server: cancel the in-flight request_id.
                  // Fire-and-forget: no direct reply — the cancelled
                  // query's response arrives as ERROR kCancelled.
  kPing = 7,      // either direction: liveness probe (payload echoed)
  kPong = 8,
  kMetricsRequest = 9,  // client -> server: empty payload
  kMetricsReply = 10,   // server -> client: text metrics dump
  kSchemaRequest = 11,  // client -> server: empty payload
  kSchemaReply = 12,    // server -> client: tables + columns
  kGoodbye = 13,        // client -> server: flush replies, then close
  kSaveTable = 14,      // client -> server: snapshot a table to the catalog
  kLoadTable = 15,      // client -> server: load a table from the catalog
  kTableOpReply = 16,   // server -> client: SAVE/LOAD outcome + timing
  kDml = 17,            // client -> server: INSERT/UPDATE/DELETE command
  kDmlReply = 18,       // server -> client: DML outcome + per-row errors
};

// True for the types a client may legally send to the server.
bool IsClientFrameType(uint8_t type);

// Header flags.
constexpr uint16_t kFlagLastChunk = 0x1;  // RESULT: final chunk of stream

// Typed error taxonomy carried by ERROR frames (and counted by the bench's
// error report). Transport-level codes first, then execution outcomes.
enum class ErrorCode : uint16_t {
  kNone = 0,
  kMalformedFrame = 1,      // bad magic / garbled header — stream poisoned
  kCrcMismatch = 2,         // header fine, payload corrupt — frame skipped
  kUnsupportedVersion = 3,  // unknown protocol version — stream poisoned
  kOversizedFrame = 4,      // payload_len above the server's cap
  kUnknownType = 5,         // valid header, unknown/illegal frame type
  kMalformedQuery = 6,      // QUERY payload did not decode
  kBadQuery = 7,            // decoded, but semantically invalid for the table
  kBusy = 8,                // backpressure: connection or in-flight cap hit
  kCancelled = 9,           // StatusCode::kCancelled over the wire
  kDeadlineExceeded = 10,   // StatusCode::kDeadlineExceeded over the wire
  kResourceExhausted = 11,  // StatusCode::kResourceExhausted over the wire
  kShuttingDown = 12,       // server is draining; retry elsewhere/later
  kProtocolViolation = 13,  // e.g. QUERY before HELLO, duplicate HELLO
  kUnknownTable = 14,       // QUERY named a table the service doesn't have
  kInternal = 15,
  kIoError = 16,            // StatusCode::kUnavailable: IO failed (snapshot
                            // save/load, spill directory, run file)
};

// Stable lowercase name ("crc_mismatch", "busy", ...) for metrics keys and
// the bench's error taxonomy; "unknown" for out-of-range values.
const char* ErrorCodeName(ErrorCode code);

// The wire spelling of mcsort::Status — THE wire error mapping. Every
// server-side failure (executor outcome, catalog IO, validation verdict)
// is a Status serialized with ToErrorCode; the client inverts with
// ToStatus. Frame-shell codes (malformed/crc/oversized/...) have no Status
// twin of their own — they collapse onto kInvalidArgument/kDataLoss/
// kFailedPrecondition — so ToErrorCode(ToStatus(e)) lands on each class's
// canonical member, which is what the round-trip test pins down.
Status ToStatus(ErrorCode code, std::string detail = "");
ErrorCode ToErrorCode(const Status& status);

struct FrameHeader {
  uint32_t magic = kMagic;
  uint8_t version = kProtocolVersion;
  uint8_t type = 0;
  uint16_t flags = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
  uint64_t request_id = 0;
};

void EncodeHeader(const FrameHeader& header, uint8_t out[kHeaderSize]);
FrameHeader DecodeHeader(const uint8_t in[kHeaderSize]);

// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected), the payload
// checksum. Software slice-by-one table; known-answer: Crc32c("123456789")
// == 0xE3069283.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

// A complete frame ready to write: header (with computed CRC) + payload.
std::string SealFrame(FrameType type, uint16_t flags, uint64_t request_id,
                      const std::string& payload);

// ---------------------------------------------------------------------------
// Primitive codec. Little-endian; strings are u16 length + bytes.
// ---------------------------------------------------------------------------

class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I64(int64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }
  // Truncates at 65535 bytes (u16 length prefix) — ample for names/ids.
  void Str(const std::string& s);
  void Bytes(const void* data, size_t n) { Raw(data, n); }

 private:
  // The build targets little-endian x86; memcpy of the native value IS the
  // little-endian encoding. (A big-endian port would byte-swap here.)
  void Raw(const void* p, size_t n) {
    out_->append(reinterpret_cast<const char*>(p), n);
  }
  std::string* out_;
};

// Reader with sticky failure: any overrun sets ok()==false and every
// subsequent read returns 0/empty, so decode functions can read the whole
// struct and check ok() once at the end.
class WireReader {
 public:
  WireReader(const void* data, size_t n)
      : p_(static_cast<const uint8_t*>(data)), n_(n) {}
  explicit WireReader(const std::string& s) : WireReader(s.data(), s.size()) {}

  uint8_t U8() { return ReadInt<uint8_t>(); }
  uint16_t U16() { return ReadInt<uint16_t>(); }
  uint32_t U32() { return ReadInt<uint32_t>(); }
  uint64_t U64() { return ReadInt<uint64_t>(); }
  int64_t I64() { return ReadInt<int64_t>(); }
  double F64() {
    double v = 0;
    ReadRaw(&v, 8);
    return v;
  }
  std::string Str();
  // Bulk copy of `n` elements of `elem_size` bytes into `out`.
  bool Array(void* out, size_t n, size_t elem_size);

  bool ok() const { return ok_; }
  size_t remaining() const { return n_ - pos_; }
  bool AtEnd() const { return ok_ && pos_ == n_; }

 private:
  template <typename T>
  T ReadInt() {
    T v{};
    ReadRaw(&v, sizeof(T));
    return v;
  }
  void ReadRaw(void* out, size_t n) {
    if (!ok_ || n_ - pos_ < n) {
      ok_ = false;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, p_ + pos_, n);
    pos_ += n;
  }
  const uint8_t* p_;
  size_t n_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace net
}  // namespace mcsort

#endif  // MCSORT_NET_WIRE_H_
