// Unit tests for the common runtime: Status, Result, codec, CRC32, RNG.
#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/status.h"

namespace cfs {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("inode 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: inode 42");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_TRUE(Status::AlreadyExists().IsAlreadyExists());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::NotLeader().IsNotLeader());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_TRUE(Status::NoSpace().IsNoSpace());
  EXPECT_TRUE(Status::Retry().IsRetry());
  EXPECT_EQ(Status::IOError().code(), StatusCode::kIOError);
  EXPECT_EQ(Status::InvalidArgument().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::Unsupported().code(), StatusCode::kUnsupported);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IOError("disk"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  std::string v = std::move(r).value();
  EXPECT_EQ(v.size(), 1000u);
}

Status HelperReturnIfError(bool fail) {
  CFS_RETURN_IF_ERROR(fail ? Status::IOError("x") : Status::OK());
  return Status::NotFound("reached end");
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(HelperReturnIfError(true).code() == StatusCode::kIOError);
  EXPECT_TRUE(HelperReturnIfError(false).IsNotFound());
}

TEST(CodecTest, FixedWidthRoundTrip) {
  Encoder e;
  e.PutU8(0xab);
  e.PutU32(0xdeadbeef);
  e.PutU64(0x0123456789abcdefull);
  e.PutI64(-42);

  Decoder d(e.data());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  ASSERT_TRUE(d.GetU8(&u8));
  ASSERT_TRUE(d.GetU32(&u32));
  ASSERT_TRUE(d.GetU64(&u64));
  ASSERT_TRUE(d.GetI64(&i64));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(d.Done());
}

TEST(CodecTest, VarintRoundTripBoundaries) {
  Encoder e;
  std::vector<uint64_t> values = {0,      1,         127,        128,
                                  16383,  16384,     (1u << 21), (1ull << 35),
                                  1ull << 63, UINT64_MAX};
  for (uint64_t v : values) e.PutVarint(v);
  Decoder d(e.data());
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(d.GetVarint(&got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(d.Done());
}

TEST(CodecTest, StringRoundTrip) {
  Encoder e;
  e.PutString("");
  e.PutString("hello");
  std::string big(100000, 'z');
  e.PutString(big);

  Decoder d(e.data());
  std::string a, b, c;
  ASSERT_TRUE(d.GetString(&a));
  ASSERT_TRUE(d.GetString(&b));
  ASSERT_TRUE(d.GetString(&c));
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, "hello");
  EXPECT_EQ(c, big);
}

TEST(CodecTest, UnderflowIsCorruption) {
  Decoder d("ab");
  uint64_t v;
  EXPECT_FALSE(d.GetU64(&v));
  EXPECT_TRUE(d.status().IsCorruption());
  Decoder d2("\xff\xff");
  EXPECT_FALSE(d2.GetVarint(&v));
  EXPECT_TRUE(d2.status().IsCorruption());
  Decoder d3("\x0a" "abc");  // declared length 10, only 3 bytes
  std::string s;
  EXPECT_FALSE(d3.GetString(&s));
  EXPECT_TRUE(d3.status().IsCorruption());
  EXPECT_EQ(d3.status().message(), "string underflow");
}

TEST(CodecTest, FirstErrorLatches) {
  // A U32 needs 4 bytes; after it fails, a U8 that would fit fails too,
  // outputs read zero, and the first error's message is kept.
  Decoder d("\x07\x08");
  uint32_t u32 = 99;
  uint8_t u8 = 99;
  std::string s = "old";
  EXPECT_FALSE(d.GetU32(&u32));
  EXPECT_FALSE(d.GetU8(&u8));
  EXPECT_FALSE(d.GetString(&s));
  EXPECT_EQ(u32, 0u);
  EXPECT_EQ(u8, 0u);
  EXPECT_EQ(s, "");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().message(), "fixed underflow");
  EXPECT_EQ(d.remaining(), 2u);
}

TEST(CodecTest, CountAboveRemainingIsCorruption) {
  Encoder fits;
  fits.PutVarint(3);
  fits.PutBytes("abc", 3);
  Decoder d(fits.data());
  uint64_t n = 0;
  EXPECT_TRUE(d.GetCount(&n));  // 3 elements of at least a byte fit in 3 bytes
  EXPECT_EQ(n, 3u);
  Encoder huge;
  huge.PutVarint(1ull << 62);
  huge.PutBytes("abc", 3);
  Decoder bad(huge.data());
  EXPECT_FALSE(bad.GetCount(&n));
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(bad.status().message(), "count exceeds remaining bytes");
}

TEST(Crc32Test, KnownVector) {
  // CRC32C("123456789") = 0xE3069283 (Castagnoli reference value).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32c("", 0), 0u); }

TEST(Crc32Test, DetectsCorruption) {
  std::string data(4096, 'a');
  uint32_t crc = Crc32c(data);
  data[100] = 'b';
  EXPECT_NE(Crc32c(data), crc);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(data);
  uint32_t part = Crc32c(data.substr(0, 10));
  part = Crc32c(data.substr(10), part);
  EXPECT_EQ(part, whole);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = r.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(7);
  double sum = 0;
  for (int i = 0; i < 10000; i++) {
    double v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

}  // namespace
}  // namespace cfs
