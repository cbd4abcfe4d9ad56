#include "tsdb/encoding.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/rng.hpp"

namespace tero::tsdb {
namespace {

// -- bit stream ---------------------------------------------------------------

/// MSB-first bit packer: bits gather in a 64-bit accumulator and leave it
/// a whole byte at a time.
class BitWriter {
 public:
  explicit BitWriter(std::string& out) : out_(out) {}

  void write_bit(bool bit) { write_bits(bit ? 1 : 0, 1); }

  /// Write the low `bits` (1..64) bits of `value`, most significant first.
  void write_bits(std::uint64_t value, unsigned bits) {
    if (bits > 32) {
      write_bits(value >> 32, bits - 32);
      bits = 32;
    }
    // At most 7 pending bits plus 32 new ones: the accumulator never drops a
    // bit that has not been written out.
    pending_ = (pending_ << bits) | (value & ((std::uint64_t{1} << bits) - 1));
    fill_ += bits;
    while (fill_ >= 8) {
      fill_ -= 8;
      out_.push_back(static_cast<char>(pending_ >> fill_));
    }
  }

  /// Pad the last partial byte with zero bits and write it out.
  void flush() {
    if (fill_ > 0) out_.push_back(static_cast<char>(pending_ << (8 - fill_)));
    fill_ = 0;
  }

 private:
  std::string& out_;
  std::uint64_t pending_ = 0;  ///< low `fill_` bits are not yet written
  unsigned fill_ = 0;
};

// -- byte-aligned header helpers ----------------------------------------------

void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

std::uint64_t get_varint(const unsigned char* data, std::size_t size,
                         std::size_t& cursor) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    if (cursor >= size || shift > 63) {
      throw ChunkCorruptError("malformed varint header");
    }
    const unsigned char byte = data[cursor++];
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

std::uint64_t zigzag(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t unzigzag(std::uint64_t value) {
  return static_cast<std::int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

void put_u64le(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_u64le(const unsigned char* data) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | data[i];
  }
  return value;
}

// dod buckets 1..3 are k ones, a zero, then dod + 2^(width-1) in `width`
// bits ('10'+7b, '110'+9b, '1110'+12b), covering [-2^(width-1),
// 2^(width-1) - 1]; '0' is dod == 0 and '1111'+64b a zigzag escape.
constexpr unsigned kDodWidth[] = {0, 7, 9, 12};

void write_dod(BitWriter& writer, std::int64_t dod) {
  if (dod == 0) {
    writer.write_bit(false);
    return;
  }
  for (unsigned k = 1; k < 4; ++k) {
    const std::int64_t bias = std::int64_t{1} << (kDodWidth[k] - 1);
    if (dod >= -bias && dod < bias) {
      writer.write_bits((std::uint64_t{1} << (k + 1)) - 2, k + 1);
      writer.write_bits(static_cast<std::uint64_t>(dod + bias), kDodWidth[k]);
      return;
    }
  }
  writer.write_bits(0b1111, 4);
  writer.write_bits(zigzag(dod), 64);
}

}  // namespace

std::string encode_chunk(std::span<const Sample> samples) {
  std::string out;
  out.reserve(16 + samples.size() * 2);
  put_varint(out, samples.size());
  if (!samples.empty()) {
    put_varint(out, zigzag(samples[0].t_ms));
    put_u64le(out, std::bit_cast<std::uint64_t>(samples[0].value));

    BitWriter writer(out);
    std::int64_t prev_t = samples[0].t_ms;
    std::int64_t prev_delta = 0;
    std::uint64_t prev_bits = std::bit_cast<std::uint64_t>(samples[0].value);
    unsigned prev_leading = 64;  // no window yet: force a '11' on first xor
    unsigned prev_length = 0;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      const std::int64_t delta = samples[i].t_ms - prev_t;
      if (delta < 0) {
        throw std::invalid_argument(
            "encode_chunk: timestamps must be non-decreasing");
      }
      write_dod(writer, delta - prev_delta);
      prev_delta = delta;
      prev_t = samples[i].t_ms;

      const std::uint64_t bits = std::bit_cast<std::uint64_t>(samples[i].value);
      const std::uint64_t xored = bits ^ prev_bits;
      prev_bits = bits;
      if (xored == 0) {
        writer.write_bit(false);
        continue;
      }
      writer.write_bit(true);
      const auto leading = static_cast<unsigned>(std::countl_zero(xored));
      const auto trailing = static_cast<unsigned>(std::countr_zero(xored));
      const unsigned length = 64 - leading - trailing;
      if (prev_length > 0 && leading >= prev_leading &&
          64 - leading - length >= 64 - prev_leading - prev_length) {
        // Fits inside the previous meaningful window: reuse it.
        writer.write_bit(false);
        writer.write_bits(xored >> (64 - prev_leading - prev_length),
                          prev_length);
      } else {
        writer.write_bit(true);
        writer.write_bits(leading, 6);
        writer.write_bits(length - 1, 6);
        writer.write_bits(xored >> trailing, length);
        prev_leading = leading;
        prev_length = length;
      }
    }
    writer.flush();
  }
  put_u64le(out, util::fnv1a64({out.data(), out.size()}));
  return out;
}

namespace {

/// Shared validation: strip and verify the trailing checksum, returning the
/// protected payload.
std::string_view checked_payload(std::string_view bytes) {
  if (bytes.size() < 8 + 1) {
    throw ChunkCorruptError("shorter than header + checksum");
  }
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  const std::uint64_t stored = get_u64le(
      reinterpret_cast<const unsigned char*>(bytes.data()) + payload.size());
  if (util::fnv1a64({payload.data(), payload.size()}) != stored) {
    throw ChunkCorruptError("checksum mismatch (corrupted chunk)");
  }
  return payload;
}

}  // namespace

std::uint64_t chunk_count(std::string_view bytes) {
  const std::string_view payload = checked_payload(bytes);
  const auto* data = reinterpret_cast<const unsigned char*>(payload.data());
  std::size_t cursor = 0;
  return get_varint(data, payload.size(), cursor);
}

ChunkCursor::ChunkCursor(std::string_view bytes) {
  const std::string_view payload = checked_payload(bytes);
  const auto* data = reinterpret_cast<const unsigned char*>(payload.data());
  std::size_t cursor = 0;
  count_ = get_varint(data, payload.size(), cursor);
  if (count_ == 0) {
    if (cursor != payload.size()) {
      throw ChunkCorruptError("trailing bytes after empty chunk");
    }
    data_ = data + cursor;
    return;
  }
  // Every sample past the first costs at least 2 bits (dod '0' + xor '0'),
  // so an insane declared count is rejected before any allocation.
  if (count_ > 1 && (count_ - 1) > payload.size() * 8) {
    throw ChunkCorruptError("declared count exceeds available bits");
  }
  t_ = unzigzag(get_varint(data, payload.size(), cursor));
  if (payload.size() - cursor < 8) {
    throw ChunkCorruptError("truncated first value");
  }
  value_bits_ = get_u64le(data + cursor);
  cursor += 8;
  data_ = data + cursor;
  bit_count_ = (payload.size() - cursor) * 8;
}

// The stream is read a 64-bit word at a time: refill() loads the eight
// bytes from the one holding bit_cursor_. Those loads may reach past the
// bit stream into the chunk's trailing 8-byte checksum, but never past the
// chunk: bit_cursor_ never exceeds bit_count_, so the load starts at most at
// the payload's end and ends at most 8 bytes later, at the chunk's end.
// Bits loaded past bit_count_ are never accepted, because read_bits checks
// every field against the bits that remain before consuming it.
void ChunkCursor::refill() noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, data_ + bit_cursor_ / 8, sizeof word);
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  const auto consumed = static_cast<unsigned>(bit_cursor_ % 8);
  word_ = word << consumed;
  buffered_ = 64 - consumed;
}

[[gnu::always_inline]] inline std::uint64_t ChunkCursor::take(
    unsigned bits) noexcept {
  if (bits > buffered_) refill();
  const std::uint64_t value = word_ >> (64 - bits);
  word_ <<= bits;
  buffered_ -= bits;
  bit_cursor_ += bits;
  return value;
}

namespace {

/// Out of line, so the reads that may throw stay small enough to inline.
[[noreturn, gnu::cold, gnu::noinline]] void throw_corrupt(const char* what) {
  throw ChunkCorruptError(what);
}

}  // namespace

[[gnu::always_inline]] inline std::uint64_t ChunkCursor::read_bits(
    unsigned bits) {
  if (bits > bit_count_ - bit_cursor_) [[unlikely]] {
    throw_corrupt("bit stream exhausted (truncated chunk)");
  }
  // A refill guarantees 57 loaded bits; wider fields take two.
  if (bits > 57) [[unlikely]] {
    const std::uint64_t high = take(32);
    return (high << (bits - 32)) | take(bits - 32);
  }
  return take(bits);
}

bool ChunkCursor::next(Sample& out) {
  if (emitted_ >= count_) return false;
  if (emitted_ == 0) {
    ++emitted_;
    out = {t_, std::bit_cast<double>(value_bits_)};
    return true;
  }
  // dod: the run of leading ones (at most 4) names the bucket, and the
  // prefix plus its biased payload is read as one field.
  if (buffered_ < 4) refill();
  const int ones = std::min(std::countl_one(word_), 4);
  std::int64_t dod = 0;
  if (ones == 0) {
    (void)read_bits(1);
  } else if (ones < 4) {
    const unsigned width = kDodWidth[ones];
    const std::uint64_t field =
        read_bits(static_cast<unsigned>(ones) + 1 + width) &
        ((std::uint64_t{1} << width) - 1);
    dod = static_cast<std::int64_t>(field) - (std::int64_t{1} << (width - 1));
  } else {
    (void)read_bits(4);
    dod = unzigzag(read_bits(64));
  }
  // Wrapping adds: a corrupt 64-bit escape may overflow, which is then
  // rejected as a negative delta or yields a wrapped, still defined, t.
  const auto delta = static_cast<std::int64_t>(
      static_cast<std::uint64_t>(delta_) + static_cast<std::uint64_t>(dod));
  if (delta < 0) {
    throw ChunkCorruptError("decoded negative timestamp delta");
  }
  delta_ = delta;
  t_ = static_cast<std::int64_t>(static_cast<std::uint64_t>(t_) +
                                 static_cast<std::uint64_t>(delta));

  // value: '0' repeats it; '10' reuses the window; '11' + 6b leading + 6b
  // (length - 1) opens a new one. Both control bits are peeked at once.
  if (buffered_ < 2) refill();
  const auto control = static_cast<unsigned>(word_ >> 62);
  if (control < 0b10) {
    (void)read_bits(1);
  } else {
    if (control == 0b11) {
      const std::uint64_t header = read_bits(14);
      leading_ = static_cast<unsigned>(header >> 6) & 63;
      window_length_ = static_cast<unsigned>(header & 63) + 1;
      if (leading_ + window_length_ > 64) {
        throw ChunkCorruptError("xor window exceeds 64 bits");
      }
    } else {
      (void)read_bits(2);
      if (window_length_ == 0) {
        throw ChunkCorruptError("window reuse before any window");
      }
    }
    const std::uint64_t window = read_bits(window_length_);
    value_bits_ ^= window << (64 - leading_ - window_length_);
  }
  ++emitted_;
  out = {t_, std::bit_cast<double>(value_bits_)};
  return true;
}

void ChunkCursor::expect_end() {
  // Only zero padding may remain — a '1' bit here means the stream and the
  // declared count disagree.
  const std::size_t left = bit_count_ - bit_cursor_;
  if (left >= 8) {
    throw ChunkCorruptError("trailing bytes after last sample");
  }
  if (left > 0 && read_bits(static_cast<unsigned>(left)) != 0) {
    throw ChunkCorruptError("nonzero padding after last sample");
  }
}

std::vector<Sample> decode_chunk(std::string_view bytes) {
  ChunkCursor cursor(bytes);
  std::vector<Sample> samples;
  samples.reserve(cursor.count());
  Sample sample;
  while (cursor.next(sample)) samples.push_back(sample);
  cursor.expect_end();
  return samples;
}

}  // namespace tero::tsdb
