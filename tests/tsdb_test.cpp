#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "tsdb/encoding.hpp"
#include "tsdb/segment.hpp"
#include "tsdb/store.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;

namespace tero::tsdb {
namespace {

// ===========================================================================
// Chunk codec
// ===========================================================================

std::vector<Sample> ramp(std::size_t n, std::int64_t t0, std::int64_t step,
                         double v0, double slope) {
  std::vector<Sample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back({t0 + static_cast<std::int64_t>(i) * step,
                       v0 + slope * static_cast<double>(i)});
  }
  return samples;
}

TEST(ChunkCodec, RoundTripsEmptyAndSingle) {
  EXPECT_TRUE(decode_chunk(encode_chunk({})).empty());
  const std::vector<Sample> one = {{123456789, 42.5}};
  EXPECT_EQ(decode_chunk(encode_chunk(one)), one);
}

TEST(ChunkCodec, RoundTripsSteadyCadence) {
  const auto samples = ramp(500, 1'000'000, 250, 30.0, 0.0);
  const std::string bytes = encode_chunk(samples);
  EXPECT_EQ(decode_chunk(bytes), samples);
  // A constant-value steady cadence is the codec's best case: roughly two
  // bits per sample after the header, far below 16 raw bytes.
  EXPECT_LT(bytes.size() * 5, samples.size() * kRawSampleBytes);
}

TEST(ChunkCodec, RejectsTimestampRegression) {
  const std::vector<Sample> bad = {{100, 1.0}, {99, 2.0}};
  EXPECT_THROW((void)encode_chunk(bad), std::invalid_argument);
}

TEST(ChunkCodec, CountMatchesHeader) {
  const auto samples = ramp(37, 5, 3, 1.0, 0.5);
  EXPECT_EQ(chunk_count(encode_chunk(samples)), 37u);
}

TEST(ChunkCodec, CursorStreamsSamplesInOrder) {
  const auto samples = ramp(64, 0, 1000, 10.0, 1.0);
  const std::string bytes = encode_chunk(samples);  // must outlive the cursor
  ChunkCursor cursor(bytes);
  EXPECT_EQ(cursor.count(), samples.size());
  Sample sample;
  std::size_t i = 0;
  while (cursor.next(sample)) {
    ASSERT_LT(i, samples.size());
    EXPECT_EQ(sample, samples[i]);
    ++i;
  }
  EXPECT_EQ(i, samples.size());
  EXPECT_NO_THROW(cursor.expect_end());
}

/// The fuzz-ish satellite: 10 seeds x stream shapes round-trip bit-exact,
/// and every single-byte corruption of the encoding errors out — never
/// silently yields wrong samples.
std::vector<Sample> random_stream(util::Rng& rng, int shape,
                                  std::size_t count) {
  std::vector<Sample> samples;
  samples.reserve(count);
  std::int64_t t = rng.uniform_int(0, 1'000'000'000);
  for (std::size_t i = 0; i < count; ++i) {
    switch (shape) {
      case 0:  // constant value, steady cadence
        samples.push_back({t, 25.0});
        t += 500;
        break;
      case 1:  // monotone ramp, jittered cadence
        samples.push_back({t, 10.0 + static_cast<double>(i) * 0.25});
        t += rng.uniform_int(1, 2000);
        break;
      case 2:  // NaN-free jitter around a mean
        samples.push_back({t, 40.0 + rng.normal(0.0, 12.0)});
        t += rng.uniform_int(0, 750);
        break;
      default:  // duplicate timestamps (several thumbnails per ms)
        samples.push_back({t, std::floor(rng.uniform(10.0, 90.0))});
        if (rng.bernoulli(0.5)) t += rng.uniform_int(1, 100);
        break;
    }
  }
  return samples;
}

TEST(ChunkCodec, FuzzRoundTripAndCorruptionSweep) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (int shape = 0; shape < 4; ++shape) {
      util::Rng rng = util::Rng::indexed(seed, static_cast<unsigned>(shape));
      const auto samples =
          random_stream(rng, shape, 64 + seed * 7 + static_cast<unsigned>(shape));
      const std::string bytes = encode_chunk(samples);
      ASSERT_EQ(decode_chunk(bytes), samples)
          << "seed " << seed << " shape " << shape;

      // Corrupt every byte (all 8 bit flips would octuple the runtime for
      // no extra coverage: the checksum catches any byte change).
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string corrupt = bytes;
        corrupt[i] = static_cast<char>(corrupt[i] ^ 0x2a);
        EXPECT_THROW((void)decode_chunk(corrupt), ChunkCorruptError)
            << "seed " << seed << " shape " << shape << " byte " << i;
      }
      // Truncations at every length must also fail loudly.
      for (std::size_t len = 0; len < bytes.size(); len += 7) {
        EXPECT_THROW((void)decode_chunk(bytes.substr(0, len)),
                     ChunkCorruptError);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential decoding. reference_decode is a bit-at-a-time decoder written
// from the chunk layout in encoding.hpp; ChunkCursor reads a word at a time.
// On every input both must reject (ChunkCorruptError) or both must yield the
// same bits.

struct RefCorrupt {};

class RefBitReader {
 public:
  RefBitReader(std::string_view payload, std::size_t byte)
      : payload_(payload), bit_(byte * 8) {}

  bool bit() {
    if (bit_ >= payload_.size() * 8) throw RefCorrupt{};
    const auto byte = static_cast<unsigned char>(payload_[bit_ / 8]);
    const bool out = ((byte >> (7 - bit_ % 8)) & 1u) != 0;
    ++bit_;
    return out;
  }
  std::uint64_t bits(unsigned n) {
    std::uint64_t value = 0;
    for (unsigned i = 0; i < n; ++i) value = (value << 1) | (bit() ? 1u : 0u);
    return value;
  }
  [[nodiscard]] std::size_t left() const {
    return payload_.size() * 8 - bit_;
  }

 private:
  std::string_view payload_;
  std::size_t bit_;
};

std::uint64_t ref_varint(std::string_view payload, std::size_t& at) {
  std::uint64_t value = 0;
  for (unsigned shift = 0;; shift += 7) {
    if (at >= payload.size() || shift > 63) throw RefCorrupt{};
    const auto byte = static_cast<unsigned char>(payload[at++]);
    value |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) return value;
  }
}

std::uint64_t ref_u64le(std::string_view bytes, std::size_t at) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(bytes[at + i]);
  }
  return value;
}

std::int64_t ref_unzigzag(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

/// Wrapping signed add: timestamps in a crafted chunk may overflow.
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

std::optional<std::vector<Sample>> reference_decode(std::string_view bytes) {
  try {
    if (bytes.size() < 9) throw RefCorrupt{};
    const std::string_view payload = bytes.substr(0, bytes.size() - 8);
    if (util::fnv1a64({payload.data(), payload.size()}) !=
        ref_u64le(bytes, payload.size())) {
      throw RefCorrupt{};
    }
    std::size_t at = 0;
    const std::uint64_t count = ref_varint(payload, at);
    std::vector<Sample> out;
    if (count == 0) {
      if (at != payload.size()) throw RefCorrupt{};
      return out;
    }
    if (count - 1 > payload.size() * 8) throw RefCorrupt{};
    std::int64_t t = ref_unzigzag(ref_varint(payload, at));
    if (payload.size() - at < 8) throw RefCorrupt{};
    std::uint64_t value = ref_u64le(payload, at);
    RefBitReader in(payload, at + 8);
    out.push_back({t, std::bit_cast<double>(value)});
    std::int64_t delta = 0;
    unsigned leading = 64;
    unsigned length = 0;
    while (out.size() < count) {
      std::int64_t dod = 0;
      if (in.bit()) {
        if (!in.bit()) {
          dod = static_cast<std::int64_t>(in.bits(7)) - 64;
        } else if (!in.bit()) {
          dod = static_cast<std::int64_t>(in.bits(9)) - 256;
        } else if (!in.bit()) {
          dod = static_cast<std::int64_t>(in.bits(12)) - 2048;
        } else {
          dod = ref_unzigzag(in.bits(64));
        }
      }
      delta = wrap_add(delta, dod);
      if (delta < 0) throw RefCorrupt{};
      t = wrap_add(t, delta);
      if (in.bit()) {
        if (in.bit()) {
          leading = static_cast<unsigned>(in.bits(6));
          length = static_cast<unsigned>(in.bits(6)) + 1;
          if (leading + length > 64) throw RefCorrupt{};
        } else if (length == 0) {
          throw RefCorrupt{};
        }
        value ^= in.bits(length) << (64 - leading - length);
      }
      out.push_back({t, std::bit_cast<double>(value)});
    }
    if (in.left() >= 8) throw RefCorrupt{};
    while (in.left() > 0) {
      if (in.bit()) throw RefCorrupt{};
    }
    return out;
  } catch (const RefCorrupt&) {
    return std::nullopt;
  }
}

/// decode_chunk and the reference agree on `bytes`; returns whether the
/// chunk was accepted.
bool expect_matches_reference(const std::string& bytes,
                              const std::string& what) {
  const auto expected = reference_decode(bytes);
  // An exact-size heap copy: under ASan, a load one byte past the chunk
  // faults.
  const std::vector<char> exact(bytes.begin(), bytes.end());
  std::optional<std::vector<Sample>> actual;
  try {
    actual = decode_chunk({exact.data(), exact.size()});
  } catch (const ChunkCorruptError&) {
  }
  EXPECT_EQ(actual.has_value(), expected.has_value()) << what;
  if (!actual || !expected) return false;
  EXPECT_EQ(actual->size(), expected->size()) << what;
  for (std::size_t i = 0; i < std::min(actual->size(), expected->size());
       ++i) {
    EXPECT_EQ((*actual)[i].t_ms, (*expected)[i].t_ms) << what << " #" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>((*actual)[i].value),
              std::bit_cast<std::uint64_t>((*expected)[i].value))
        << what << " #" << i;
  }
  return true;
}

/// Samples that reach every codec path: NaN, +-0, +-inf, denormals, raw
/// 64-bit patterns (fresh XOR windows, often 64 bits wide), repeats, whole
/// and fractional values; time steps of zero, steady, jittered, and jumps
/// and reversals of the step that need the 64-bit delta-of-delta escape.
std::vector<Sample> edge_stream(util::Rng& rng, std::size_t count) {
  const double specials[] = {std::nan(""),
                             -std::nan(""),
                             0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             1e-310,
                             std::numeric_limits<double>::max(),
                             25.0,
                             -3.25};
  std::vector<Sample> samples;
  std::int64_t t = rng.uniform_int(-1'000'000'000, 1'000'000'000);
  for (std::size_t i = 0; i < count; ++i) {
    double value = 0.0;
    switch (rng.uniform_int(0, 5)) {
      case 0:
        value = specials[rng.uniform_int(
            0, static_cast<std::int64_t>(std::size(specials)) - 1)];
        break;
      case 1: value = std::floor(rng.uniform(0.0, 200.0)); break;
      case 2: value = rng.uniform(0.0, 200.0); break;
      case 3: value = samples.empty() ? 1.0 : samples.back().value; break;
      default: value = std::bit_cast<double>(rng.next_u64()); break;
    }
    samples.push_back({t, value});
    switch (rng.uniform_int(0, 5)) {
      case 0: break;
      case 1: t += 3'600'000; break;
      case 2: t += rng.uniform_int(0, 100); break;
      case 3: t += rng.uniform_int(0, 5000); break;
      case 4: t += rng.uniform_int(0, std::int64_t{1} << 40); break;
      default: t += rng.uniform_int(0, std::int64_t{1} << 14); break;
    }
  }
  return samples;
}

/// `payload` framed as a chunk: the payload, then its fnv1a64 little-endian.
std::string with_checksum(std::string payload) {
  const std::uint64_t sum = util::fnv1a64({payload.data(), payload.size()});
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));
  }
  return payload;
}

std::string varint(std::uint64_t value) {
  std::string out;
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
  return out;
}

/// A chunk written by hand: header (count, t0 = 0, first value 1.0) and
/// then `bits`, a string of '0'/'1', zero-padded to a byte.
std::string crafted_chunk(std::uint64_t count, const std::string& bits) {
  std::string payload = varint(count) + varint(0);
  const auto first = std::bit_cast<std::uint64_t>(1.0);
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<char>((first >> (8 * i)) & 0xff));
  }
  for (std::size_t i = 0; i < bits.size(); i += 8) {
    unsigned byte = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      byte = (byte << 1) | (i + b < bits.size() && bits[i + b] == '1' ? 1 : 0);
    }
    payload.push_back(static_cast<char>(byte));
  }
  return with_checksum(payload);
}

TEST(ChunkCodec, DecoderMatchesBitAtATimeReference) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng = util::Rng::indexed(seed, 17);
    const auto samples =
        edge_stream(rng, static_cast<std::size_t>(rng.uniform_int(0, 300)));
    const std::string bytes = encode_chunk(samples);
    ASSERT_TRUE(
        expect_matches_reference(bytes, "seed " + std::to_string(seed)));
    const auto decoded = decode_chunk(bytes);
    ASSERT_EQ(decoded.size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(decoded[i].t_ms, samples[i].t_ms);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded[i].value),
                std::bit_cast<std::uint64_t>(samples[i].value));
    }
  }
}

TEST(ChunkCodec, EncodingBytesArePinned) {
  // The encoder's exact output across the edge corpus: a format change, or a
  // writer that packs bits differently, moves this digest.
  std::uint64_t digest = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng = util::Rng::indexed(seed, 17);
    const std::string bytes = encode_chunk(
        edge_stream(rng, static_cast<std::size_t>(rng.uniform_int(0, 300))));
    digest =
        util::mix_seed(digest, util::fnv1a64({bytes.data(), bytes.size()}));
  }
  EXPECT_EQ(digest, 0x50e697d418d18dbeull);
}

/// Mutants of a valid chunk that all carry a recomputed, valid checksum, so
/// only the decoder's own checks stand between them and wrong samples.
TEST(ChunkCodec, ValidChecksumMutantsRejectOrMatchReference) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto check = [&](const std::string& bytes, const std::string& what) {
    (expect_matches_reference(bytes, what) ? accepted : rejected) += 1;
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng = util::Rng::indexed(seed, 29);
    const std::string bytes = encode_chunk(
        edge_stream(rng, static_cast<std::size_t>(rng.uniform_int(2, 120))));
    const std::string payload = bytes.substr(0, bytes.size() - 8);
    std::size_t body = 0;
    const std::uint64_t count = ref_varint(payload, body);
    const std::string tag = "seed " + std::to_string(seed);

    // Inflated (and deflated) declared counts.
    const std::uint64_t huge = std::uint64_t{1} << 40;
    for (const std::uint64_t k : {count - 1, count + 1, count + 2, count + 7,
                                  count + 1000, count + huge}) {
      check(with_checksum(varint(k) + payload.substr(body)),
            tag + " count " + std::to_string(k));
    }
    // The bit stream cut short at every byte.
    for (std::size_t len = 0; len < payload.size(); ++len) {
      check(with_checksum(payload.substr(0, len)),
            tag + " truncated to " + std::to_string(len));
    }
    // One and two flipped bits anywhere in the payload.
    for (int i = 0; i < 64; ++i) {
      std::string flipped = payload;
      for (int f = 0; f <= i % 2; ++f) {
        const auto bit = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(payload.size()) * 8 - 1));
        flipped[bit / 8] =
            static_cast<char>(flipped[bit / 8] ^ (0x80 >> (bit % 8)));
      }
      check(with_checksum(flipped), tag + " flip " + std::to_string(i));
    }
  }
  // Hand-written streams (count 2: dod, then a value) that reach each check.
  const std::string wide = "0" "11" "000000" "111111" + std::string(64, '1');
  const std::vector<std::pair<std::string, std::string>> crafted = {
      {"0" "11" "111100" "001001" "1111111111", "leading + length > 64"},
      {"0" "10" "1", "window reuse before any window"},
      {"10" "0000000" "0", "negative delta"},
      {"1111" + std::string(60, '0') + "0010" + "0", "64-bit dod escape"},
      {"1111" + std::string(30, '0'), "truncated dod escape"},
      {wide, "64-bit window"},
      {wide.substr(0, wide.size() - 9), "truncated 64-bit window"},
  };
  for (const auto& [bits, what] : crafted) check(crafted_chunk(2, bits), what);
  EXPECT_THROW((void)decode_chunk(crafted_chunk(2, crafted[0].first)),
               ChunkCorruptError);
  EXPECT_THROW((void)decode_chunk(crafted_chunk(2, crafted[1].first)),
               ChunkCorruptError);
  EXPECT_THROW((void)decode_chunk(crafted_chunk(2, crafted[2].first)),
               ChunkCorruptError);
  EXPECT_EQ(decode_chunk(crafted_chunk(2, crafted[3].first))[1].t_ms, 1);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                decode_chunk(crafted_chunk(2, wide))[1].value),
            ~std::bit_cast<std::uint64_t>(1.0));
  // Both outcomes were exercised.
  EXPECT_GT(accepted, 40u);
  EXPECT_GT(rejected, 1000u);
}

// ===========================================================================
// Segments
// ===========================================================================

TEST(SegmentTest, BuildFindAndPersistRoundTrip) {
  std::map<std::string, std::vector<Sample>> series;
  series["alpha"] = ramp(100, 0, 1000, 20.0, 0.1);
  series["beta"] = ramp(50, 500, 2000, 60.0, -0.2);
  const Segment segment = build_segment(7, 0, series);
  EXPECT_EQ(segment.id, 7u);
  EXPECT_EQ(segment.sample_count, 150u);
  EXPECT_EQ(segment.raw_bytes, 150u * kRawSampleBytes);
  ASSERT_NE(segment.find("alpha"), nullptr);
  EXPECT_EQ(segment.find("alpha")->count, 100u);
  EXPECT_EQ(segment.find("gamma"), nullptr);

  const fs::path dir = fs::temp_directory_path() / "tero_tsdb_segment_test";
  fs::create_directories(dir);
  const std::string path = (dir / "seg.tkv").string();
  save_segment(segment, path);
  const Segment loaded = load_segment(path);
  EXPECT_EQ(loaded.id, segment.id);
  EXPECT_EQ(loaded.sample_count, segment.sample_count);
  EXPECT_EQ(loaded.compressed_bytes, segment.compressed_bytes);
  ASSERT_NE(loaded.find("beta"), nullptr);
  EXPECT_EQ(decode_chunk(loaded.find("beta")->bytes), series["beta"]);
  fs::remove_all(dir);
}

TEST(SegmentTest, MergePreservesEverySampleInTimeOrder) {
  std::map<std::string, std::vector<Sample>> first, second;
  first["k"] = ramp(40, 0, 100, 1.0, 1.0);
  second["k"] = ramp(40, 4000, 100, 41.0, 1.0);
  second["only-late"] = ramp(5, 4500, 10, 9.0, 0.0);
  const auto a = std::make_shared<const Segment>(build_segment(1, 0, first));
  const auto b = std::make_shared<const Segment>(build_segment(2, 0, second));
  const std::vector<std::shared_ptr<const Segment>> inputs = {a, b};
  const Segment merged = merge_segments(inputs, 3, 1);
  EXPECT_EQ(merged.level, 1u);
  EXPECT_EQ(merged.sample_count, 85u);
  const auto all = decode_chunk(merged.find("k")->bytes);
  ASSERT_EQ(all.size(), 80u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const Sample& x, const Sample& y) {
                               return x.t_ms < y.t_ms;
                             }));
  EXPECT_EQ(all.front().t_ms, 0);
  EXPECT_EQ(all.back().t_ms, 4000 + 39 * 100);
}

// ===========================================================================
// TimeSeriesStore
// ===========================================================================

constexpr std::int64_t kDayMs = 86'400'000;

/// Deterministic workload: `keys` series, `days` virtual days of samples,
/// advancing the store one day at a time (exactly the stream-sink cadence).
void load_store(TimeSeriesStore& store, std::uint64_t seed, int keys,
                int days, int per_day = 24) {
  for (int day = 0; day < days; ++day) {
    for (int k = 0; k < keys; ++k) {
      util::Rng rng = util::Rng::indexed(
          seed, static_cast<std::uint64_t>(day) * 1000 +
                    static_cast<std::uint64_t>(k));
      const std::string key = "game" + std::to_string(k % 3) + "|US|key" +
                              std::to_string(k);
      for (int i = 0; i < per_day; ++i) {
        const std::int64_t t = static_cast<std::int64_t>(day) * kDayMs +
                               static_cast<std::int64_t>(i) * (kDayMs / per_day);
        store.append(key, t, std::floor(rng.uniform(20.0, 80.0)));
      }
    }
    store.advance_to((static_cast<std::int64_t>(day) + 1) * kDayMs);
  }
}

TEST(StoreTest, SealsCompactsAndAnswersRangeQueries) {
  TsdbConfig config;
  config.compact_fanin = 4;
  TimeSeriesStore store(config);
  load_store(store, 42, 6, 10);

  const auto stats = store.stats();
  EXPECT_EQ(stats.sealed_until_ms, 10 * kDayMs);
  EXPECT_EQ(stats.head_samples, 0u);
  EXPECT_EQ(stats.segment_samples, 6u * 10u * 24u);
  // 10 daily seals with fanin 4 compact twice: 10 -> 2x level1 + 2x level0.
  EXPECT_EQ(stats.segments, 4u);
  EXPECT_GT(stats.raw_bytes, stats.compressed_bytes * 4);

  RangeQuery query;
  query.key = "game0|US|key0";
  query.t0_ms = 0;
  query.t1_ms = 10 * kDayMs;
  query.window_ms = kDayMs;
  query.agg = RangeAgg::kCount;
  const auto counts = store.range(query);
  ASSERT_EQ(counts.size(), 10u);
  for (const RangePoint& point : counts) {
    EXPECT_EQ(point.count, 24u);
    EXPECT_DOUBLE_EQ(point.value, 24.0);
  }

  query.agg = RangeAgg::kPercentile;
  query.pct = 99.0;
  const auto p99 = store.range(query);
  ASSERT_EQ(p99.size(), 10u);
  for (const RangePoint& point : p99) {
    EXPECT_GE(point.value, 20.0);
    EXPECT_LE(point.value, 81.0);
  }

  // Mean over a window must match the materialized series exactly.
  query.agg = RangeAgg::kMean;
  const auto means = store.range(query);
  const auto all = store.series(query.key);
  double expect = 0.0;
  for (const Sample& sample : all) {
    if (sample.t_ms < kDayMs) expect += sample.value;
  }
  expect /= 24.0;
  EXPECT_DOUBLE_EQ(means.front().value, expect);
}

TEST(StoreTest, RangeCoversHeadAndRejectsBadQueries) {
  TimeSeriesStore store(TsdbConfig{});
  store.append("k", 10, 5.0);
  store.append("k", 20, 7.0);  // still in the head: never advanced
  RangeQuery query;
  query.key = "k";
  query.t0_ms = 0;
  query.t1_ms = 100;
  query.window_ms = 100;
  query.agg = RangeAgg::kMean;
  const auto points = store.range(query);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points.front().count, 2u);
  EXPECT_DOUBLE_EQ(points.front().value, 6.0);

  query.t1_ms = query.t0_ms;
  EXPECT_THROW((void)store.range(query), std::invalid_argument);
  query.t1_ms = 100;
  query.window_ms = 0;
  EXPECT_THROW((void)store.range(query), std::invalid_argument);
  query.window_ms = 1;
  query.t1_ms = query.t0_ms + (TimeSeriesStore::kMaxWindows + 1);
  EXPECT_THROW((void)store.range(query), std::invalid_argument);
}

TEST(StoreTest, RejectsAppendsBehindSealedFrontier) {
  TimeSeriesStore store(TsdbConfig{});
  store.append("k", kDayMs + 5, 1.0);
  store.advance_to(2 * kDayMs);
  EXPECT_THROW(store.append("k", kDayMs - 1, 2.0), std::invalid_argument);
  EXPECT_NO_THROW(store.append("k", 2 * kDayMs, 3.0));
}

TEST(StoreTest, AdvanceSealsAtWholeDayBoundaries) {
  TimeSeriesStore store(TsdbConfig{});
  store.append("k", 10, 1.0);
  store.append("k", kDayMs + 5, 2.0);
  // Mid-day: only the first whole day is sealed; the rest stays in the head.
  store.advance_to(kDayMs + kDayMs / 2);
  EXPECT_EQ(store.sealed_until(), kDayMs);
  EXPECT_EQ(store.stats().head_samples, 1u);
  // One millisecond short of the next boundary seals nothing more.
  store.advance_to(2 * kDayMs - 1);
  EXPECT_EQ(store.sealed_until(), kDayMs);
  EXPECT_EQ(store.stats().head_samples, 1u);
  store.advance_to(2 * kDayMs);
  EXPECT_EQ(store.sealed_until(), 2 * kDayMs);
  EXPECT_EQ(store.stats().head_samples, 0u);
  EXPECT_EQ(store.stats().segment_samples, 2u);
}

TEST(StoreTest, RetentionDropsExpiredSegments) {
  TsdbConfig config;
  config.retention_ms = 3 * kDayMs;
  config.compact_fanin = 100;  // keep daily segments distinct
  TimeSeriesStore store(config);
  load_store(store, 7, 2, 8);
  const auto stats = store.stats();
  // Only segments whose max_t is within the trailing 3 days survive.
  EXPECT_LE(stats.segments, 4u);
  RangeQuery query;
  query.key = "game0|US|key0";
  query.t0_ms = 0;
  query.t1_ms = kDayMs;
  query.window_ms = kDayMs;
  query.agg = RangeAgg::kCount;
  EXPECT_EQ(store.range(query).front().count, 0u);
}

TEST(StoreTest, DriftComparesAdjacentWeeks) {
  TimeSeriesStore store(TsdbConfig{});
  const std::string key = "g|US";
  for (int day = 0; day < 14; ++day) {
    const double value = day < 7 ? 30.0 : 50.0;  // step change last week
    for (int i = 0; i < 24; ++i) {
      store.append(key, day * kDayMs + i * 3'600'000, value);
    }
    store.advance_to((day + 1) * kDayMs);
  }
  const double drift = store.drift(key, 14 * kDayMs, 99.0);
  EXPECT_NEAR(drift, 20.0, 2.0);  // sketch alpha is 1%
}

/// range() with kPercentile as one QuantileSketch per window would answer
/// it, over the store's materialized series.
std::vector<RangePoint> reference_percentiles(const TimeSeriesStore& store,
                                              const RangeQuery& query) {
  const auto windows = static_cast<std::size_t>(
      (query.t1_ms - query.t0_ms + query.window_ms - 1) / query.window_ms);
  std::vector<obs::QuantileSketch> sketches(windows);
  std::vector<RangePoint> points(windows);
  for (const Sample& sample : store.series(query.key)) {
    if (sample.t_ms < query.t0_ms || sample.t_ms >= query.t1_ms) continue;
    const auto w = static_cast<std::size_t>((sample.t_ms - query.t0_ms) /
                                            query.window_ms);
    sketches[w].add(sample.value);
    ++points[w].count;
  }
  for (std::size_t w = 0; w < windows; ++w) {
    points[w].t_ms =
        query.t0_ms + static_cast<std::int64_t>(w) * query.window_ms;
    if (points[w].count > 0) {
      points[w].value = sketches[w].quantile(query.pct / 100.0);
    }
  }
  return points;
}

/// 16 virtual days of a few series: days 0-13 sealed and compacted across
/// levels, days 14-15 still in the head, day 5 empty. Values include the
/// underflow bucket's members (0, negatives, NaN, 1e-9 itself) and +inf
/// next to whole and fractional latencies.
constexpr const char* kEdgeKeys[] = {"k0", "k1", "k2"};

void load_edge_store(TimeSeriesStore& store) {
  constexpr std::int64_t kHourMs = 3'600'000;
  const double odd[] = {0.0,   -0.0,  -5.0,  std::nan(""), 1e-9, 1.1e-9,
                        1e-12, std::numeric_limits<double>::infinity()};
  for (int day = 0; day < 16; ++day) {
    if (day < 14) store.advance_to(day * kDayMs);
    if (day == 5) continue;
    for (int k = 0; k < 3; ++k) {
      util::Rng rng = util::Rng::indexed(static_cast<std::uint64_t>(day), k);
      for (int hour = 0; hour < 24; ++hour) {
        double value = rng.uniform(5.0, 150.0);
        if (rng.bernoulli(0.3)) value = std::floor(value);
        if (rng.bernoulli(0.15)) {
          value = odd[rng.uniform_int(
              0, static_cast<std::int64_t>(std::size(odd)) - 1)];
        }
        store.append(kEdgeKeys[k],
                     day * kDayMs + hour * kHourMs + rng.uniform_int(0, 999),
                     value);
      }
    }
  }
}

TEST(StoreTest, RangePercentileMatchesPerWindowSketchReference) {
  TsdbConfig config;
  config.compact_fanin = 3;
  TimeSeriesStore store(config);
  load_edge_store(store);
  ASSERT_GT(store.stats().head_samples, 0u);
  ASSERT_GT(store.stats().segments, 1u);

  constexpr std::int64_t kHourMs = 3'600'000;
  struct Span {
    std::int64_t t0, t1, window;
  };
  const Span spans[] = {
      {0, 16 * kDayMs, kDayMs},                      // every day, one empty
      {0, 16 * kDayMs, 7 * kHourMs},                 // partial last window
      {4 * kDayMs, 7 * kDayMs, kHourMs},             // around the empty day
      {13 * kDayMs + kDayMs / 2, 15 * kDayMs, 5 * kHourMs},  // segments + head
      {-3 * kDayMs, -kDayMs, kDayMs},                // before any data
      {0, 16 * kDayMs, 16 * kDayMs},                 // one window, everything
  };
  std::size_t windows_with_data = 0;
  for (const Span& span : spans) {
    for (const double pct : {0.0, 50.0, 99.0, 100.0}) {
      for (int k = 0; k < 3; ++k) {
        RangeQuery query;
        query.key = kEdgeKeys[k];
        query.t0_ms = span.t0;
        query.t1_ms = span.t1;
        query.window_ms = span.window;
        query.agg = RangeAgg::kPercentile;
        query.pct = pct;
        const auto actual = store.range(query);
        const auto expected = reference_percentiles(store, query);
        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t w = 0; w < actual.size(); ++w) {
          EXPECT_EQ(actual[w].t_ms, expected[w].t_ms);
          EXPECT_EQ(actual[w].count, expected[w].count);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[w].value),
                    std::bit_cast<std::uint64_t>(expected[w].value))
              << query.key << " [" << span.t0 << ", " << span.t1 << ") / "
              << span.window << " pct " << pct << " window " << w;
          if (expected[w].count > 0) ++windows_with_data;
        }
      }
    }
  }
  EXPECT_GT(windows_with_data, 1000u);

  // drift: the same percentile over two adjacent weeks, both by reference.
  constexpr std::int64_t kWeekMs = 7 * kDayMs;
  for (const std::int64_t now : {14 * kDayMs, 15 * kDayMs + 17 * kHourMs}) {
    for (const double pct : {0.0, 50.0, 99.0, 100.0}) {
      RangeQuery current;
      current.key = "k1";
      current.t0_ms = now - kWeekMs;
      current.t1_ms = now;
      current.window_ms = kWeekMs;
      current.agg = RangeAgg::kPercentile;
      current.pct = pct;
      RangeQuery previous = current;
      previous.t0_ms = now - 2 * kWeekMs;
      previous.t1_ms = now - kWeekMs;
      const double expected =
          reference_percentiles(store, current).front().value -
          reference_percentiles(store, previous).front().value;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(store.drift("k1", now, pct)),
                std::bit_cast<std::uint64_t>(expected))
          << "now " << now << " pct " << pct;
    }
  }
}

TEST(StoreTest, BitIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TimeSeriesStore serial(TsdbConfig{});
    load_store(serial, seed, 5, 9);

    util::ThreadPool pool(8);
    TsdbConfig parallel_config;
    parallel_config.pool = &pool;
    TimeSeriesStore parallel(parallel_config);
    load_store(parallel, seed, 5, 9);

    EXPECT_EQ(serial.segment_layout(), parallel.segment_layout())
        << "seed " << seed;
    EXPECT_EQ(serial.dataset_digest(), parallel.dataset_digest())
        << "seed " << seed;
  }
}

// ===========================================================================
// Durability and crash recovery
// ===========================================================================

class StoreDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test and process: ctest runs these tests as
    // separate processes in parallel, so a shared name would collide.
    dir_ = (fs::temp_directory_path() /
            ("tero_tsdb_store_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(StoreDiskTest, ReopensWithSegmentsAndHead) {
  std::uint64_t digest = 0;
  {
    TsdbConfig config;
    config.dir = dir_;
    TimeSeriesStore store(config);
    load_store(store, 3, 4, 5);
    store.append("late|key", 5 * kDayMs + 17, 33.0);  // stays in the head
    digest = store.dataset_digest();
  }
  TsdbConfig config;
  config.dir = dir_;
  TimeSeriesStore reopened(config);
  EXPECT_EQ(reopened.sealed_until(), 5 * kDayMs);
  EXPECT_EQ(reopened.dataset_digest(), digest);
  const auto late = reopened.series("late|key");
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late.front().t_ms, 5 * kDayMs + 17);
}

TEST_F(StoreDiskTest, TornWalTailIsDiscardedAcknowledgedSamplesSurvive) {
  {
    TsdbConfig config;
    config.dir = dir_;
    TimeSeriesStore store(config);
    store.append("k", 100, 1.0);
    store.append("k", 200, 2.0);
  }
  // Simulate a torn tail: append garbage that looks like a partial record.
  {
    std::ofstream wal(dir_ + "/wal.log",
                      std::ios::binary | std::ios::app);
    wal << "R 1 k 300 461";  // truncated mid-record
  }
  TsdbConfig config;
  config.dir = dir_;
  TimeSeriesStore reopened(config);
  const auto samples = reopened.series("k");
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].t_ms, 100);
  EXPECT_EQ(samples[1].t_ms, 200);
}

TEST_F(StoreDiskTest, CrashDuringSealNeverLosesAcknowledgedSamples) {
  fault::FaultInjector injector(
      fault::FaultPlan::parse("tsdb.seal=crash@1:max=1", 5));
  {
    TsdbConfig config;
    config.dir = dir_;
    config.injector = &injector;
    TimeSeriesStore store(config);
    EXPECT_THROW(load_store(store, 11, 3, 4), std::runtime_error);
  }
  // Recovery: every acknowledged append is still there, in the WAL-backed
  // head — the seal never completed, so nothing was ever allowed to leave
  // the WAL's protection.
  TsdbConfig config;
  config.dir = dir_;
  TimeSeriesStore recovered(config);
  EXPECT_EQ(recovered.sealed_until(), 0);
  std::uint64_t recovered_count = 0;
  for (const auto& key : recovered.keys()) {
    recovered_count += recovered.series(key).size();
  }
  EXPECT_EQ(recovered_count, 3u * 1u * 24u);  // day 0 was fully appended
}

TEST_F(StoreDiskTest, CrashDuringCompactionRecoversLossless) {
  fault::FaultInjector injector(
      fault::FaultPlan::parse("tsdb.compact=crash@1:max=1", 9));
  std::uint64_t pre_crash_digest = 0;
  bool crashed = false;
  {
    TsdbConfig config;
    config.dir = dir_;
    config.injector = &injector;
    TimeSeriesStore store(config);
    try {
      load_store(store, 9, 3, 8);
    } catch (const std::runtime_error&) {
      crashed = true;
    }
    // In-memory object stays consistent even after the injected crash.
    pre_crash_digest = store.dataset_digest();
  }
  ASSERT_TRUE(crashed);
  TsdbConfig config;
  config.dir = dir_;
  TimeSeriesStore recovered(config);
  EXPECT_EQ(recovered.dataset_digest(), pre_crash_digest);
}

TEST_F(StoreDiskTest, ReadFaultSurfacesAsRuntimeError) {
  fault::FaultInjector injector(
      fault::FaultPlan::parse("tsdb.read=error@1", 1));
  TsdbConfig config;
  config.injector = &injector;
  TimeSeriesStore store(config);
  store.append("k", 10, 1.0);
  RangeQuery query;
  query.key = "k";
  query.t0_ms = 0;
  query.t1_ms = 100;
  query.window_ms = 100;
  EXPECT_THROW((void)store.range(query), std::runtime_error);
}

TEST_F(StoreDiskTest, MetricsTrackSegmentsAndBytes) {
  obs::MetricsRegistry metrics;
  TsdbConfig config;
  config.metrics = &metrics;
  TimeSeriesStore store(config);
  load_store(store, 2, 3, 5);
  EXPECT_EQ(metrics.counter("tero.tsdb.seals").value(), 5u);
  EXPECT_GT(metrics.counter("tero.tsdb.compactions").value(), 0u);
  EXPECT_GT(metrics.gauge("tero.tsdb.bytes_raw").value(),
            metrics.gauge("tero.tsdb.bytes_compressed").value());
  RangeQuery query;
  query.key = "game0|US|key0";
  query.t0_ms = 0;
  query.t1_ms = 5 * kDayMs;
  query.window_ms = kDayMs;
  (void)store.range(query);
  EXPECT_EQ(metrics.counter("tero.tsdb.range_queries").value(), 1u);
  EXPECT_GT(metrics.histogram("tero.tsdb.read_segments").count(), 0u);
}

}  // namespace
}  // namespace tero::tsdb
