#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "store/doc_store.hpp"
#include "store/kv_store.hpp"

namespace tero::fault {
class FaultInjector;
}  // namespace tero::fault

namespace tero::store {

/// Snapshot/restore for the stores backing the micro-services (App. B):
/// the coordinator's crash recovery reads "most of its previous state" back
/// from the KV store, which in the real deployment is durable Redis; here a
/// length-prefixed text snapshot provides the same guarantee for tests and
/// long-running examples.
///
/// Format (line-oriented, values length-prefixed so they may contain
/// anything): `K <keylen> <key> <valuelen> <value>` for plain keys,
/// `L <keylen> <key> <valuelen> <value>` for list elements in FIFO order.
void snapshot_kv(const KvStore& kv, std::ostream& os);
[[nodiscard]] KvStore restore_kv(std::istream& is);

/// Document-store snapshot: `D <collectionlen> <collection> <fields>` then
/// one `F <keylen> <key> <valuelen> <value>` line per field.
void snapshot_docs(const DocStore& docs, std::ostream& os);
[[nodiscard]] DocStore restore_docs(std::istream& is);

// -- crash-safe file snapshots ------------------------------------------------
//
// save_kv_file writes `TEROKV 1\n<payload><payload_bytes> <fnv1a64>\nTEROKV
// END\n` to `<path>.tmp` and atomically renames it over `path`, so a crash
// mid-write leaves the previous snapshot intact and a reader never observes
// a half-written file. load_kv_file verifies the header, the footer, and the
// payload checksum, rejecting torn or truncated files with a clear error
// (std::runtime_error mentioning the path and what was wrong).
//
// `injector`, when non-null, arms the "persist.write" fault point: an
// injected kError or kCrash tears the write — the temp file is left
// truncated mid-payload, the primary file untouched — and save_kv_file
// throws std::runtime_error, which is exactly the torn-write failure
// load_kv_file's checks must catch.
void save_kv_file(const KvStore& kv, const std::string& path,
                  fault::FaultInjector* injector = nullptr);
[[nodiscard]] KvStore load_kv_file(const std::string& path);

// -- text records -------------------------------------------------------------
//
// The TEROKV text formats (serve snapshots, stream checkpoints) hold one
// record per KV value: fields joined by the ASCII unit separator (gazetteer
// names and game titles never contain control characters).
inline constexpr char kFieldSep = '\x1f';

/// Round-trip double rendering (`%.17g`): strtod reads back the same bits.
[[nodiscard]] std::string format_double(double value);

/// Split `record` at every kFieldSep; n separators give n + 1 fields.
[[nodiscard]] std::vector<std::string> split_fields(const std::string& record);

}  // namespace tero::store
