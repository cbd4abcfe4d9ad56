#include "store/persistence.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "fault/fault.hpp"
#include "util/rng.hpp"

namespace tero::store {
namespace {

void write_field(std::ostream& os, const std::string& value) {
  os << value.size() << ' ' << value;
}

std::string read_field(std::istream& is) {
  std::size_t length = 0;
  if (!(is >> length)) {
    throw std::invalid_argument("restore: truncated length");
  }
  is.get();  // separator space
  std::string value(length, '\0');
  is.read(value.data(), static_cast<std::streamsize>(length));
  if (static_cast<std::size_t>(is.gcount()) != length) {
    throw std::invalid_argument("restore: truncated value");
  }
  return value;
}

}  // namespace

void snapshot_kv(const KvStore& kv, std::ostream& os) {
  for (const auto& key : kv.keys_with_prefix("")) {
    os << "K ";
    write_field(os, key);
    os << ' ';
    write_field(os, *kv.get(key));
    os << '\n';
  }
  for (const auto& list_key : kv.list_keys()) {
    for (const auto& value : kv.list_contents(list_key)) {
      os << "L ";
      write_field(os, list_key);
      os << ' ';
      write_field(os, value);
      os << '\n';
    }
  }
}

KvStore restore_kv(std::istream& is) {
  KvStore kv;
  char tag = 0;
  while (is >> tag) {
    if (tag == 'K') {
      std::string key = read_field(is);
      std::string value = read_field(is);
      kv.put(std::move(key), std::move(value));
    } else if (tag == 'L') {
      const std::string list_key = read_field(is);
      kv.push_back(list_key, read_field(is));
    } else {
      throw std::invalid_argument("restore_kv: unknown record tag");
    }
  }
  return kv;
}

void snapshot_docs(const DocStore& docs, std::ostream& os) {
  for (const auto& collection : docs.collections()) {
    for (const Document* doc :
         docs.scan(collection, [](const Document&) { return true; })) {
      os << "D ";
      write_field(os, collection);
      os << ' ' << doc->size() << '\n';
      for (const auto& [field, value] : *doc) {
        os << "F ";
        write_field(os, field);
        os << ' ';
        write_field(os, value);
        os << '\n';
      }
    }
  }
}

DocStore restore_docs(std::istream& is) {
  DocStore docs;
  char tag = 0;
  while (is >> tag) {
    if (tag != 'D') {
      throw std::invalid_argument("restore_docs: expected D record");
    }
    const std::string collection = read_field(is);
    std::size_t fields = 0;
    if (!(is >> fields)) {
      throw std::invalid_argument("restore_docs: missing field count");
    }
    Document doc;
    for (std::size_t i = 0; i < fields; ++i) {
      if (!(is >> tag) || tag != 'F') {
        throw std::invalid_argument("restore_docs: expected F record");
      }
      std::string field = read_field(is);
      std::string value = read_field(is);
      doc.emplace(std::move(field), std::move(value));
    }
    docs.insert(collection, std::move(doc));
  }
  return docs;
}

namespace {

constexpr std::string_view kFileHeader = "TEROKV 1\n";
constexpr std::string_view kFileTrailer = "TEROKV END\n";

[[noreturn]] void reject(const std::string& path, std::string_view why) {
  throw std::runtime_error("load_kv_file: " + path + ": " + std::string(why));
}

}  // namespace

void save_kv_file(const KvStore& kv, const std::string& path,
                  fault::FaultInjector* injector) {
  std::ostringstream payload_os;
  snapshot_kv(kv, payload_os);
  const std::string payload = payload_os.str();

  fault::FaultPoint* point =
      fault::FaultInjector::maybe_point(injector, "persist.write");
  const fault::FaultDecision decision =
      point != nullptr ? point->hit() : fault::FaultDecision{};
  const bool torn = decision.kind == fault::FaultKind::kError ||
                    decision.kind == fault::FaultKind::kCrash ||
                    decision.kind == fault::FaultKind::kCorrupt;

  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw std::runtime_error("save_kv_file: cannot open " + tmp_path);
    }
    os << kFileHeader;
    if (torn) {
      // Simulated crash mid-write: half the payload, no footer. The temp
      // file is deliberately left behind so load paths can prove they
      // reject it; the primary at `path` is untouched.
      os.write(payload.data(),
               static_cast<std::streamsize>(payload.size() / 2));
      os.flush();
      throw std::runtime_error("save_kv_file: injected torn write to " +
                               tmp_path);
    }
    os << payload;
    os << payload.size() << ' '
       << util::fnv1a64({payload.data(), payload.size()}) << '\n'
       << kFileTrailer;
    os.flush();
    if (!os) {
      throw std::runtime_error("save_kv_file: write failed for " + tmp_path);
    }
  }
  // Atomic publish: readers see either the old snapshot or the new one,
  // never a prefix.
  std::filesystem::rename(tmp_path, path);
}

KvStore load_kv_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) reject(path, "cannot open");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string contents = buffer.str();

  if (contents.size() < kFileHeader.size() ||
      contents.compare(0, kFileHeader.size(), kFileHeader) != 0) {
    reject(path, "missing TEROKV header (not a snapshot file?)");
  }
  if (contents.size() < kFileHeader.size() + kFileTrailer.size() ||
      contents.compare(contents.size() - kFileTrailer.size(),
                       kFileTrailer.size(), kFileTrailer) != 0) {
    reject(path, "missing end marker (torn or truncated write)");
  }

  // Body = payload + "<payload_bytes> <checksum>\n".
  const std::string_view body(
      contents.data() + kFileHeader.size(),
      contents.size() - kFileHeader.size() - kFileTrailer.size());
  const auto footer_start = body.rfind('\n', body.size() >= 2
                                                 ? body.size() - 2
                                                 : std::string_view::npos);
  const std::string_view footer =
      footer_start == std::string_view::npos
          ? body
          : body.substr(footer_start + 1);
  std::istringstream footer_is{std::string(footer)};
  std::size_t payload_bytes = 0;
  std::uint64_t checksum = 0;
  if (!(footer_is >> payload_bytes >> checksum)) {
    reject(path, "unparseable footer (torn or truncated write)");
  }
  const std::string_view payload = body.substr(0, body.size() - footer.size());
  if (payload.size() != payload_bytes) {
    reject(path, "payload length mismatch (torn or truncated write)");
  }
  if (util::fnv1a64({payload.data(), payload.size()}) != checksum) {
    reject(path, "payload checksum mismatch (corrupted snapshot)");
  }

  std::istringstream payload_is{std::string(payload)};
  try {
    return restore_kv(payload_is);
  } catch (const std::invalid_argument& error) {
    reject(path, std::string("malformed record: ") + error.what());
  }
}

std::string format_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::vector<std::string> split_fields(const std::string& record) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t sep = record.find(kFieldSep, start);
    if (sep == std::string::npos) {
      fields.push_back(record.substr(start));
      return fields;
    }
    fields.push_back(record.substr(start, sep - start));
    start = sep + 1;
  }
}

}  // namespace tero::store
