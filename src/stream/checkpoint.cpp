#include "stream/checkpoint.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "store/kv_store.hpp"
#include "store/persistence.hpp"

namespace tero::stream {
namespace {

using store::format_double;
using store::kFieldSep;
using store::split_fields;

[[noreturn]] void malformed(const std::string& what) {
  throw std::invalid_argument("stream::load_checkpoint: malformed " + what);
}

std::uint64_t to_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}
std::int64_t to_i64(const std::string& s) {
  return std::strtoll(s.c_str(), nullptr, 10);
}
double to_f64(const std::string& s) {
  return std::strtod(s.c_str(), nullptr);
}

// Measurements: space-separated "t:lat:alt" triples; alt == "n" when the
// OCR alternative is absent. %.17g never emits ':' or ' '.
std::string encode_points(const std::vector<analysis::Measurement>& points) {
  std::string out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) out += ' ';
    out += format_double(points[i].time_s);
    out += ':';
    out += std::to_string(points[i].latency_ms);
    out += ':';
    out += points[i].alternative_ms.has_value()
               ? std::to_string(*points[i].alternative_ms)
               : std::string("n");
  }
  return out;
}

std::vector<analysis::Measurement> decode_points(const std::string& encoded) {
  std::vector<analysis::Measurement> points;
  std::size_t start = 0;
  while (start < encoded.size()) {
    std::size_t end = encoded.find(' ', start);
    if (end == std::string::npos) end = encoded.size();
    const std::string triple = encoded.substr(start, end - start);
    const std::size_t c1 = triple.find(':');
    const std::size_t c2 = triple.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      malformed("measurement triple");
    }
    analysis::Measurement m;
    m.time_s = to_f64(triple.substr(0, c1));
    m.latency_ms = static_cast<int>(to_i64(triple.substr(c1 + 1, c2 - c1 - 1)));
    const std::string alt = triple.substr(c2 + 1);
    if (alt != "n") m.alternative_ms = static_cast<int>(to_i64(alt));
    points.push_back(m);
    start = end + 1;
  }
  return points;
}

std::string encode_sketch(const SketchState& sketch) {
  std::string out;
  for (std::size_t i = 0; i < sketch.buckets.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(sketch.buckets[i].first);
    out += ':';
    out += std::to_string(sketch.buckets[i].second);
  }
  return out;
}

SketchState decode_sketch(const std::string& buckets,
                          std::uint64_t underflow) {
  SketchState sketch;
  sketch.underflow = underflow;
  std::size_t start = 0;
  while (start < buckets.size()) {
    std::size_t end = buckets.find(' ', start);
    if (end == std::string::npos) end = buckets.size();
    const std::string pair = buckets.substr(start, end - start);
    const std::size_t colon = pair.find(':');
    if (colon == std::string::npos) malformed("sketch bucket");
    sketch.buckets.emplace_back(
        static_cast<int>(to_i64(pair.substr(0, colon))),
        to_u64(pair.substr(colon + 1)));
    start = end + 1;
  }
  return sketch;
}

/// Aggregate as five fields: count, mean, m2, underflow, buckets.
void append_aggregate(std::string& out, const AggregateState& agg) {
  out += std::to_string(agg.count);
  out += kFieldSep;
  out += format_double(agg.mean);
  out += kFieldSep;
  out += format_double(agg.m2);
  out += kFieldSep;
  out += std::to_string(agg.sketch.underflow);
  out += kFieldSep;
  out += encode_sketch(agg.sketch);
}

AggregateState decode_aggregate(const std::vector<std::string>& fields,
                                std::size_t at) {
  AggregateState agg;
  agg.count = to_u64(fields.at(at));
  agg.mean = to_f64(fields.at(at + 1));
  agg.m2 = to_f64(fields.at(at + 2));
  agg.sketch = decode_sketch(fields.at(at + 4), to_u64(fields.at(at + 3)));
  return agg;
}

std::string encode_spikes(const std::vector<analysis::SpikeEvent>& spikes) {
  std::string out;
  for (std::size_t i = 0; i < spikes.size(); ++i) {
    if (i > 0) out += ' ';
    out += format_double(spikes[i].start_s);
    out += ':';
    out += format_double(spikes[i].end_s);
    out += ':';
    out += std::to_string(spikes[i].peak_latency_ms);
    out += ':';
    out += std::to_string(spikes[i].baseline_ms);
  }
  return out;
}

std::vector<analysis::SpikeEvent> decode_spikes(const std::string& encoded) {
  std::vector<analysis::SpikeEvent> spikes;
  std::size_t start = 0;
  while (start < encoded.size()) {
    std::size_t end = encoded.find(' ', start);
    if (end == std::string::npos) end = encoded.size();
    const std::string rec = encoded.substr(start, end - start);
    const std::size_t c1 = rec.find(':');
    const std::size_t c2 = rec.find(':', c1 + 1);
    const std::size_t c3 = rec.find(':', c2 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        c3 == std::string::npos) {
      malformed("spike record");
    }
    analysis::SpikeEvent spike;
    spike.start_s = to_f64(rec.substr(0, c1));
    spike.end_s = to_f64(rec.substr(c1 + 1, c2 - c1 - 1));
    spike.peak_latency_ms = static_cast<int>(to_i64(rec.substr(c2 + 1, c3 - c2 - 1)));
    spike.baseline_ms = static_cast<int>(to_i64(rec.substr(c3 + 1)));
    spikes.push_back(spike);
    start = end + 1;
  }
  return spikes;
}

std::string encode_clusters(
    const std::vector<analysis::LatencyCluster>& clusters) {
  std::string out;
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(clusters[i].min_ms);
    out += ':';
    out += std::to_string(clusters[i].max_ms);
    out += ':';
    out += format_double(clusters[i].weight);
    out += ':';
    out += std::to_string(clusters[i].point_count);
  }
  return out;
}

std::vector<analysis::LatencyCluster> decode_clusters(
    const std::string& encoded) {
  std::vector<analysis::LatencyCluster> clusters;
  std::size_t start = 0;
  while (start < encoded.size()) {
    std::size_t end = encoded.find(' ', start);
    if (end == std::string::npos) end = encoded.size();
    const std::string rec = encoded.substr(start, end - start);
    const std::size_t c1 = rec.find(':');
    const std::size_t c2 = rec.find(':', c1 + 1);
    const std::size_t c3 = rec.find(':', c2 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        c3 == std::string::npos) {
      malformed("cluster record");
    }
    analysis::LatencyCluster cluster;
    cluster.min_ms = static_cast<int>(to_i64(rec.substr(0, c1)));
    cluster.max_ms = static_cast<int>(to_i64(rec.substr(c1 + 1, c2 - c1 - 1)));
    cluster.weight = to_f64(rec.substr(c2 + 1, c3 - c2 - 1));
    cluster.point_count = to_u64(rec.substr(c3 + 1));
    clusters.push_back(cluster);
    start = end + 1;
  }
  return clusters;
}

}  // namespace

void save_checkpoint(const CheckpointData& data, std::ostream& os) {
  store::KvStore kv;
  {
    std::string meta;
    const auto field = [&meta](const std::string& v) {
      meta += v;
      meta += kFieldSep;
    };
    field(std::to_string(data.id));
    field(std::to_string(data.cursor));
    field(std::to_string(data.events_total));
    field(std::to_string(data.thumbnails));
    field(std::to_string(data.visible));
    field(std::to_string(data.ocr_ok));
    field(format_double(data.watermark));
    field(std::to_string(data.measurements));
    field(std::to_string(data.late_events));
    field(std::to_string(data.windows_closed));
    field(std::to_string(data.windows_since_publish));
    field(std::to_string(data.epoch_counter));
    meta += std::to_string(data.epochs_published);
    kv.put("meta", meta);
  }
  {
    std::string open;
    bool first = true;
    for (const auto& [source, wm] : data.open_sources) {
      if (!first) open += ' ';
      first = false;
      open += std::to_string(source);
      open += ':';
      open += format_double(wm);
    }
    kv.put("open", open);
  }

  kv.put("groups", std::to_string(data.groups.size()));
  for (std::size_t i = 0; i < data.groups.size(); ++i) {
    const auto& group = data.groups[i];
    std::string rec = std::to_string(group.key.streamer_index);
    rec += kFieldSep;
    rec += group.key.game;
    rec += kFieldSep;
    rec += std::to_string(group.key.epoch);
    rec += kFieldSep;
    rec += std::to_string(group.remaining);
    rec += kFieldSep;
    rec += std::to_string(group.streams.size());
    kv.put("g" + std::to_string(i), rec);
    for (std::size_t j = 0; j < group.streams.size(); ++j) {
      std::string buf = std::to_string(group.streams[j].stream_index);
      buf += kFieldSep;
      buf += encode_points(group.streams[j].points);
      std::string key = "g";
      key += std::to_string(i);
      key += ":s";
      key += std::to_string(j);
      kv.put(key, buf);
    }
  }

  kv.put("windows", std::to_string(data.windows.size()));
  for (std::size_t i = 0; i < data.windows.size(); ++i) {
    const auto& w = data.windows[i];
    std::string rec = std::to_string(w.window);
    rec += kFieldSep;
    rec += w.location.city;
    rec += kFieldSep;
    rec += w.location.region;
    rec += kFieldSep;
    rec += w.location.country;
    rec += kFieldSep;
    rec += w.game;
    rec += kFieldSep;
    append_aggregate(rec, w.agg);
    for (const auto& streamer : w.streamers) {
      rec += kFieldSep;
      rec += streamer;
    }
    kv.put("w" + std::to_string(i), rec);
  }

  kv.put("running", std::to_string(data.running.size()));
  for (std::size_t i = 0; i < data.running.size(); ++i) {
    const auto& r = data.running[i];
    std::string rec = r.location.city;
    rec += kFieldSep;
    rec += r.location.region;
    rec += kFieldSep;
    rec += r.location.country;
    rec += kFieldSep;
    rec += r.game;
    rec += kFieldSep;
    append_aggregate(rec, r.agg);
    for (const auto& streamer : r.streamers) {
      rec += kFieldSep;
      rec += streamer;
    }
    kv.put("r" + std::to_string(i), rec);
  }

  kv.put("collected", std::to_string(data.collected.size()));
  for (std::size_t i = 0; i < data.collected.size(); ++i) {
    const auto& c = data.collected[i];
    const auto& e = c.entry;
    std::string rec;
    const auto field = [&rec](const std::string& v) {
      rec += v;
      rec += kFieldSep;
    };
    field(std::to_string(c.key.streamer_index));
    field(c.key.game);
    field(std::to_string(c.key.epoch));
    field(e.pseudonym);
    field(e.location.city);
    field(e.location.region);
    field(e.location.country);
    field(e.true_location.city);
    field(e.true_location.region);
    field(e.true_location.country);
    field(std::to_string(static_cast<int>(e.location_source)));
    field(e.is_static ? "1" : "0");
    field(e.high_quality ? "1" : "0");
    field(std::to_string(e.clean.points_in));
    field(std::to_string(e.clean.points_retained));
    field(std::to_string(e.clean.points_corrected));
    field(std::to_string(e.clean.points_discarded));
    field(std::to_string(e.clean.spike_points));
    field(std::to_string(e.clean.glitch_segments));
    field(encode_spikes(e.clean.spikes));
    field(encode_clusters(e.clusters));
    rec += std::to_string(e.clean.retained.size());
    kv.put("c" + std::to_string(i), rec);
    for (std::size_t j = 0; j < e.clean.retained.size(); ++j) {
      const auto& stream = e.clean.retained[j];
      std::string buf = stream.streamer;
      buf += kFieldSep;
      buf += stream.game;
      buf += kFieldSep;
      buf += encode_points(stream.points);
      std::string key = "c";
      key += std::to_string(i);
      key += ":r";
      key += std::to_string(j);
      kv.put(key, buf);
    }
  }

  store::snapshot_kv(kv, os);
}

CheckpointData load_checkpoint(std::istream& is) {
  const store::KvStore kv = store::restore_kv(is);
  const auto need = [&kv](const std::string& key) -> std::string {
    const auto value = kv.get(key);
    if (!value.has_value()) malformed("missing key " + key);
    return *value;
  };

  CheckpointData data;
  {
    const auto fields = split_fields(need("meta"));
    if (fields.size() != 13) malformed("meta record");
    data.id = to_u64(fields[0]);
    data.cursor = to_u64(fields[1]);
    data.events_total = to_u64(fields[2]);
    data.thumbnails = to_u64(fields[3]);
    data.visible = to_u64(fields[4]);
    data.ocr_ok = to_u64(fields[5]);
    data.watermark = to_f64(fields[6]);
    data.measurements = to_u64(fields[7]);
    data.late_events = to_u64(fields[8]);
    data.windows_closed = to_u64(fields[9]);
    data.windows_since_publish = to_u64(fields[10]);
    data.epoch_counter = to_u64(fields[11]);
    data.epochs_published = to_u64(fields[12]);
  }
  {
    const std::string open = need("open");
    std::size_t start = 0;
    while (start < open.size()) {
      std::size_t end = open.find(' ', start);
      if (end == std::string::npos) end = open.size();
      const std::string pair = open.substr(start, end - start);
      const std::size_t colon = pair.find(':');
      if (colon == std::string::npos) malformed("open source");
      data.open_sources.emplace(
          static_cast<std::uint32_t>(to_u64(pair.substr(0, colon))),
          to_f64(pair.substr(colon + 1)));
      start = end + 1;
    }
  }

  const std::size_t n_groups = to_u64(need("groups"));
  for (std::size_t i = 0; i < n_groups; ++i) {
    const auto fields = split_fields(need("g" + std::to_string(i)));
    if (fields.size() != 5) malformed("group record");
    CheckpointData::GroupState group;
    group.key.streamer_index = to_u64(fields[0]);
    group.key.game = fields[1];
    group.key.epoch = static_cast<int>(to_i64(fields[2]));
    group.remaining = to_u64(fields[3]);
    const std::size_t n_streams = to_u64(fields[4]);
    for (std::size_t j = 0; j < n_streams; ++j) {
      const auto buf = split_fields(
          need("g" + std::to_string(i) + ":s" + std::to_string(j)));
      if (buf.size() != 2) malformed("group stream record");
      CheckpointData::StreamBuffer stream;
      stream.stream_index = static_cast<std::uint32_t>(to_u64(buf[0]));
      stream.points = decode_points(buf[1]);
      group.streams.push_back(std::move(stream));
    }
    data.groups.push_back(std::move(group));
  }

  const std::size_t n_windows = to_u64(need("windows"));
  for (std::size_t i = 0; i < n_windows; ++i) {
    const auto fields = split_fields(need("w" + std::to_string(i)));
    if (fields.size() < 10) malformed("window record");
    CheckpointData::WindowState w;
    w.window = to_i64(fields[0]);
    w.location.city = fields[1];
    w.location.region = fields[2];
    w.location.country = fields[3];
    w.game = fields[4];
    w.agg = decode_aggregate(fields, 5);
    for (std::size_t f = 10; f < fields.size(); ++f) {
      w.streamers.push_back(fields[f]);
    }
    data.windows.push_back(std::move(w));
  }

  const std::size_t n_running = to_u64(need("running"));
  for (std::size_t i = 0; i < n_running; ++i) {
    const auto fields = split_fields(need("r" + std::to_string(i)));
    if (fields.size() < 9) malformed("running record");
    CheckpointData::RunningState r;
    r.location.city = fields[0];
    r.location.region = fields[1];
    r.location.country = fields[2];
    r.game = fields[3];
    r.agg = decode_aggregate(fields, 4);
    for (std::size_t f = 9; f < fields.size(); ++f) {
      r.streamers.push_back(fields[f]);
    }
    data.running.push_back(std::move(r));
  }

  const std::size_t n_collected = to_u64(need("collected"));
  for (std::size_t i = 0; i < n_collected; ++i) {
    const auto fields = split_fields(need("c" + std::to_string(i)));
    if (fields.size() != 22) malformed("collected record");
    CollectedEntry c;
    c.key.streamer_index = to_u64(fields[0]);
    c.key.game = fields[1];
    c.key.epoch = static_cast<int>(to_i64(fields[2]));
    auto& e = c.entry;
    e.pseudonym = fields[3];
    e.game = c.key.game;
    e.location.city = fields[4];
    e.location.region = fields[5];
    e.location.country = fields[6];
    e.true_location.city = fields[7];
    e.true_location.region = fields[8];
    e.true_location.country = fields[9];
    e.location_source =
        static_cast<social::LocationSource>(to_i64(fields[10]));
    e.is_static = fields[11] == "1";
    e.high_quality = fields[12] == "1";
    e.clean.points_in = to_u64(fields[13]);
    e.clean.points_retained = to_u64(fields[14]);
    e.clean.points_corrected = to_u64(fields[15]);
    e.clean.points_discarded = to_u64(fields[16]);
    e.clean.spike_points = to_u64(fields[17]);
    e.clean.glitch_segments = to_u64(fields[18]);
    e.clean.spikes = decode_spikes(fields[19]);
    e.clusters = decode_clusters(fields[20]);
    const std::size_t n_retained = to_u64(fields[21]);
    for (std::size_t j = 0; j < n_retained; ++j) {
      const auto buf = split_fields(
          need("c" + std::to_string(i) + ":r" + std::to_string(j)));
      if (buf.size() != 3) malformed("retained stream record");
      analysis::Stream stream;
      stream.streamer = buf[0];
      stream.game = buf[1];
      stream.points = decode_points(buf[2]);
      e.clean.retained.push_back(std::move(stream));
    }
    data.collected.push_back(std::move(c));
  }
  return data;
}

std::string checkpoint_path(const std::string& dir, std::uint64_t id) {
  return dir + "/checkpoint-" + std::to_string(id) + ".kv";
}

void write_checkpoint_file(const CheckpointData& data,
                           const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path = checkpoint_path(dir, data.id);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw std::runtime_error("stream: cannot write checkpoint " + tmp);
    }
    save_checkpoint(data, os);
  }
  std::filesystem::rename(tmp, path);
}

std::optional<std::uint64_t> latest_checkpoint_id(const std::string& dir) {
  std::error_code ec;
  std::optional<std::uint64_t> latest;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view prefix = "checkpoint-";
    constexpr std::string_view suffix = ".kv";
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string digits = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const std::uint64_t id = to_u64(digits);
    if (!latest.has_value() || id > *latest) latest = id;
  }
  return latest;
}

CheckpointData read_checkpoint_file(const std::string& dir,
                                    std::uint64_t id) {
  std::ifstream is(checkpoint_path(dir, id), std::ios::binary);
  if (!is) {
    throw std::runtime_error("stream: cannot read checkpoint " +
                             checkpoint_path(dir, id));
  }
  return load_checkpoint(is);
}

}  // namespace tero::stream
