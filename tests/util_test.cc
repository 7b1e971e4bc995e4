#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/coding.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"

namespace gistcr {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::Corruption("").IsCorruption());
  EXPECT_TRUE(Status::Deadlock("").IsDeadlock());
  EXPECT_TRUE(Status::DuplicateKey("").IsDuplicateKey());
  EXPECT_TRUE(Status::Aborted("").IsAborted());
  EXPECT_TRUE(Status::NoSpace("").IsNoSpace());
  EXPECT_TRUE(Status::Busy("").IsBusy());
  EXPECT_TRUE(Status::IOError("").IsIOError());
}

TEST(StatusOrTest, ValueAndStatus) {
  StatusOr<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  StatusOr<int> err(Status::NotFound("x"));
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsNotFound());
}

TEST(SliceTest, CompareAndEquality) {
  Slice a("abc");
  Slice b("abd");
  EXPECT_LT(a.compare(b), 0);
  EXPECT_GT(b.compare(a), 0);
  EXPECT_EQ(a.compare(Slice("abc")), 0);
  EXPECT_TRUE(a == Slice("abc"));
  EXPECT_TRUE(a != b);
  EXPECT_LT(Slice("ab").compare(a), 0);  // prefix sorts first
}

TEST(SliceTest, EmptySlices) {
  Slice e;
  EXPECT_TRUE(e.empty());
  EXPECT_TRUE(e == Slice(""));
  EXPECT_EQ(e.compare(Slice("a")), -1);
}

TEST(CodingTest, FixedIntsRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Decoder d(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(d.GetFixed16(&a));
  ASSERT_TRUE(d.GetFixed32(&b));
  ASSERT_TRUE(d.GetFixed64(&c));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_TRUE(d.Done());
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("hello"));
  PutLengthPrefixed(&buf, Slice(""));
  Decoder d(buf);
  std::string a, b;
  ASSERT_TRUE(d.GetLengthPrefixed(&a));
  ASSERT_TRUE(d.GetLengthPrefixed(&b));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
}

TEST(CodingTest, DecoderUnderflowDetected) {
  std::string buf;
  PutFixed32(&buf, 7);
  Decoder d(buf);
  uint64_t v;
  EXPECT_FALSE(d.GetFixed64(&v));
  std::string s;
  Decoder d2(buf);  // claims 7 bytes follow but none do
  EXPECT_FALSE(d2.GetLengthPrefixed(&s));
}

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, ChainingMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  const size_t n = strlen(data);
  const uint32_t whole = Crc32(data, n);
  const uint32_t part = Crc32(data + 10, n - 10, Crc32(data, 10));
  EXPECT_EQ(whole, part);
}

TEST(Crc32Test, DetectsBitFlip) {
  std::string s = "some log record payload";
  const uint32_t before = Crc32(s.data(), s.size());
  s[5] ^= 0x40;
  EXPECT_NE(before, Crc32(s.data(), s.size()));
}

// Reference: the textbook byte-at-a-time CRC-32 (reflected IEEE
// polynomial). The production kernel must match it bit for bit, since
// every page and log record on disk carries its values.
constexpr size_t kCrcPageBytes = 8192;  // one data page

uint32_t ReferenceCrc32(const char* data, size_t n, uint32_t init = 0) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t c = init ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; i++) {
    c = table[(c ^ static_cast<unsigned char>(data[i])) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Random rng(0xC0C0);
  std::string buf(kCrcPageBytes + 16, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng.Next());
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; n++) lengths.push_back(n);
  lengths.push_back(kCrcPageBytes);
  for (size_t off = 0; off < 8; off++) {
    for (size_t n : lengths) {
      const char* p = buf.data() + off;
      ASSERT_EQ(Crc32(p, n), ReferenceCrc32(p, n))
          << "offset " << off << " length " << n;
    }
  }
}

TEST(Crc32Test, ChainedSeedsMatchReference) {
  Random rng(77);
  std::string buf(kCrcPageBytes, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng.Next());
  // Split the page at every cut point class (word-aligned or not) and
  // chain: the seed carries the running CRC across the cut.
  for (size_t cut : {0u, 1u, 3u, 7u, 8u, 9u, 24u, 4095u, 4096u, 8191u}) {
    const uint32_t head = Crc32(buf.data(), cut);
    EXPECT_EQ(head, ReferenceCrc32(buf.data(), cut));
    const uint32_t chained = Crc32(buf.data() + cut, buf.size() - cut, head);
    EXPECT_EQ(chained, ReferenceCrc32(buf.data(), buf.size())) << cut;
    EXPECT_EQ(chained, ReferenceCrc32(buf.data() + cut, buf.size() - cut,
                                      ReferenceCrc32(buf.data(), cut)));
  }
  // Arbitrary (non-CRC) seeds too.
  for (uint32_t seed : {0x1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    for (size_t n : {5u, 8u, 13u, 64u}) {
      EXPECT_EQ(Crc32(buf.data() + 3, n, seed),
                ReferenceCrc32(buf.data() + 3, n, seed));
    }
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformRangeBounds) {
  Random r(7);
  for (int i = 0; i < 1000; i++) {
    const int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(ZipfianTest, SkewsTowardLowRanks) {
  ZipfianGenerator z(1000, 0.99, 1234);
  uint64_t low = 0, total = 20000;
  for (uint64_t i = 0; i < total; i++) {
    if (z.Next() < 100) low++;
  }
  // With theta=0.99, the top decile of ranks draws well over half the mass.
  EXPECT_GT(low, total / 2);
}

TEST(ZipfianTest, StaysInRange) {
  ZipfianGenerator z(50, 0.8, 99);
  for (int i = 0; i < 5000; i++) EXPECT_LT(z.Next(), 50u);
}

}  // namespace
}  // namespace gistcr
