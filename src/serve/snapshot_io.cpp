#include "serve/snapshot_io.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "store/kv_store.hpp"
#include "store/persistence.hpp"

namespace tero::serve {
namespace {

using store::format_double;
using store::kFieldSep;
using store::split_fields;

// One KV value per entry: scalar fields joined by kFieldSep, distribution
// values space-separated inside the final field.
std::string encode_entry(const SnapshotEntry& entry) {
  std::string out;
  const auto field = [&out](const std::string& value) {
    out += value;
    out += kFieldSep;
  };
  field(entry.location.city);
  field(entry.location.region);
  field(entry.location.country);
  field(entry.game);
  field(std::to_string(entry.streamers));
  field(format_double(entry.mean_ms));
  field(format_double(entry.box.p5));
  field(format_double(entry.box.p25));
  field(format_double(entry.box.p50));
  field(format_double(entry.box.p75));
  field(format_double(entry.box.p95));
  field(entry.anomaly_flagged ? "1" : "0");
  field(std::to_string(entry.shared_anomalies));
  field(entry.server_city);
  field(format_double(entry.avg_corrected_distance_km));
  // Final field: the sorted sample set.
  std::string values;
  for (std::size_t i = 0; i < entry.sorted_values.size(); ++i) {
    if (i > 0) values += ' ';
    values += format_double(entry.sorted_values[i]);
  }
  out += values;
  return out;
}

SnapshotEntry decode_entry(const std::string& record) {
  const auto fields = split_fields(record);
  if (fields.size() != 16) {
    throw std::invalid_argument(
        "serve::load_snapshot: malformed entry record (" +
        std::to_string(fields.size()) + " fields)");
  }
  SnapshotEntry entry;
  entry.location.city = fields[0];
  entry.location.region = fields[1];
  entry.location.country = fields[2];
  entry.game = fields[3];
  entry.streamers = std::strtoull(fields[4].c_str(), nullptr, 10);
  entry.mean_ms = std::strtod(fields[5].c_str(), nullptr);
  entry.box.p5 = std::strtod(fields[6].c_str(), nullptr);
  entry.box.p25 = std::strtod(fields[7].c_str(), nullptr);
  entry.box.p50 = std::strtod(fields[8].c_str(), nullptr);
  entry.box.p75 = std::strtod(fields[9].c_str(), nullptr);
  entry.box.p95 = std::strtod(fields[10].c_str(), nullptr);
  entry.anomaly_flagged = fields[11] == "1";
  entry.shared_anomalies = std::strtoull(fields[12].c_str(), nullptr, 10);
  entry.server_city = fields[13];
  entry.avg_corrected_distance_km = std::strtod(fields[14].c_str(), nullptr);
  const std::string& values = fields[15];
  const char* cursor = values.c_str();
  const char* const end = cursor + values.size();
  while (cursor < end) {
    char* after = nullptr;
    const double value = std::strtod(cursor, &after);
    if (after == cursor) break;
    entry.sorted_values.push_back(value);
    cursor = after;
  }
  entry.samples = entry.sorted_values.size();
  entry.key = entry_key(entry.location, entry.game);
  return entry;
}

}  // namespace

void save_snapshot(const Snapshot& snapshot, std::ostream& os) {
  store::KvStore kv;
  kv.put("meta:epoch", std::to_string(snapshot.epoch()));
  kv.put("meta:entries", std::to_string(snapshot.size()));
  const auto entries = snapshot.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    kv.put("e:" + std::to_string(i), encode_entry(entries[i]));
  }
  store::snapshot_kv(kv, os);
}

SnapshotPtr load_snapshot(std::istream& is) {
  const store::KvStore kv = store::restore_kv(is);
  const auto epoch_str = kv.get("meta:epoch");
  const auto count_str = kv.get("meta:entries");
  if (!epoch_str.has_value() || !count_str.has_value()) {
    throw std::invalid_argument(
        "serve::load_snapshot: missing snapshot metadata");
  }
  const std::uint64_t epoch = std::strtoull(epoch_str->c_str(), nullptr, 10);
  const std::size_t count = std::strtoull(count_str->c_str(), nullptr, 10);
  std::vector<SnapshotEntry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto record = kv.get("e:" + std::to_string(i));
    if (!record.has_value()) {
      throw std::invalid_argument("serve::load_snapshot: missing entry " +
                                  std::to_string(i));
    }
    entries.push_back(decode_entry(*record));
  }
  return std::make_shared<const Snapshot>(epoch, std::move(entries));
}

}  // namespace tero::serve
