#include "store/result_store.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "runtime/sweep_runner.hpp"  // serialize_sim_result / parse_sim_result
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"
#include "util/hash.hpp"

namespace fs = std::filesystem;

namespace afs {
namespace {

constexpr const char* kStoreSchema = "afs-store-v2";

std::string entry_content(const CellKey& key, const SimResult& r) {
  // The crc32c line checksums everything after it.
  std::ostringstream body;
  body << "keybytes " << key.text.size() << '\n'
       << key.text << serialize_sim_result(r);
  char crc[24];
  std::snprintf(crc, sizeof crc, "crc32c %08x", crc32c(body.str()));
  return std::string(kStoreSchema) + '\n' + crc + '\n' + body.str();
}

/// The structural fields of an entry, independent of which CellKey the
/// caller is looking for — what verify() needs, and what load()'s
/// authentication is built from.
struct ParsedEntry {
  std::string key_text;  ///< the embedded CellKey::text
  SimResult result;      ///< the parsed payload
};

/// Parses and self-validates an entry: schema, crc, keybytes framing,
/// payload parse. Key *authentication* against a lookup key is
/// the caller's job — verify() has no lookup key and checks the filename
/// hash instead.
bool parse_entry_fields(const std::string& content, ParsedEntry& out) {
  std::size_t pos = content.find('\n');
  if (pos == std::string::npos) return false;
  if (content.compare(0, pos, kStoreSchema) != 0) return false;
  ++pos;

  // crc32c <8 hex> over everything after this line.
  std::size_t eol = content.find('\n', pos);
  if (eol == std::string::npos) return false;
  const std::string crc = content.substr(pos, eol - pos);
  constexpr const char* kCrc = "crc32c ";
  if (crc.rfind(kCrc, 0) != 0) return false;
  const std::string hexv = crc.substr(std::string(kCrc).size());
  char* end = nullptr;
  const unsigned long long want = std::strtoull(hexv.c_str(), &end, 16);
  if (hexv.size() != 8 || end != hexv.c_str() + 8) return false;
  pos = eol + 1;
  if (crc32c(content.data() + pos, content.size() - pos) !=
      static_cast<std::uint32_t>(want))
    return false;

  eol = content.find('\n', pos);
  if (eol == std::string::npos) return false;
  const std::string header = content.substr(pos, eol - pos);
  constexpr const char* kKeyBytes = "keybytes ";
  if (header.rfind(kKeyBytes, 0) != 0) return false;
  const std::string count = header.substr(std::string(kKeyBytes).size());
  const long long n = std::strtoll(count.c_str(), &end, 10);
  if (end == count.c_str() || *end != '\0' || n < 0) return false;
  pos = eol + 1;

  if (content.size() - pos < static_cast<std::size_t>(n)) return false;
  out.key_text = content.substr(pos, static_cast<std::size_t>(n));
  pos += static_cast<std::size_t>(n);
  return parse_sim_result(content.substr(pos), out.result);
}

/// Parses an entry and authenticates it against `key`. Any malformation —
/// wrong schema, bad checksum, short file, key mismatch (collision or
/// corruption), unparseable payload — is a miss.
bool parse_entry(const std::string& content, const CellKey& key,
                 SimResult& out) {
  ParsedEntry e;
  if (!parse_entry_fields(content, e)) return false;
  if (e.key_text != key.text) return false;
  out = e.result;
  return true;
}

struct EntryInfo {
  fs::path path;
  std::int64_t bytes = 0;
  fs::file_time_type mtime;
  bool quarantined = false;
};

constexpr const char* kQuarantineDir = "quarantine";

/// Size and mtime of the file at `d`; nullopt when it vanished under us.
std::optional<EntryInfo> info_of(const fs::directory_entry& d,
                                 bool quarantined) {
  std::error_code ec;
  EntryInfo e;
  e.path = d.path();
  e.quarantined = quarantined;
  e.bytes = static_cast<std::int64_t>(d.file_size(ec));
  if (ec) return std::nullopt;
  e.mtime = d.last_write_time(ec);
  if (ec) return std::nullopt;
  return e;
}

std::vector<EntryInfo> list_entries(const std::string& root) {
  std::vector<EntryInfo> entries;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    // Quarantined files are evidence, not entries (list_quarantine).
    if (it->is_directory(ec) && it->path().filename() == kQuarantineDir) {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != ".cell") continue;  // skips .tmp.* files
    if (auto e = info_of(*it, false)) entries.push_back(std::move(*e));
  }
  return entries;
}

/// The files under <root>/quarantine/ (any name: they are evidence, not
/// entries).
std::vector<EntryInfo> list_quarantine(const std::string& root) {
  std::vector<EntryInfo> files;
  std::error_code ec;
  for (fs::directory_iterator it(fs::path(root) / kQuarantineDir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (auto e = info_of(*it, true)) files.push_back(std::move(*e));
  }
  return files;
}

}  // namespace

ResultStore::ResultStore(std::string root) : root_(std::move(root)) {
  AFS_CHECK_MSG(!root_.empty(), "ResultStore root must not be empty");
}

std::string ResultStore::entry_path(const CellKey& key) const {
  const std::string hex = hex64(key.hash);
  return root_ + "/" + hex.substr(0, 2) + "/" + hex + ".cell";
}

bool ResultStore::load(const CellKey& key, SimResult& out) {
  if (key.cacheable) {
    bool existed = false;
    {
      std::ifstream in(entry_path(key), std::ios::binary);
      if (in) {
        existed = true;
        std::ostringstream buf;
        buf << in.rdbuf();
        if (parse_entry(buf.str(), key, out)) {
          hits_.fetch_add(1);
          // LRU signal for gc(): a served entry is a recently-used entry.
          std::error_code ec;
          fs::last_write_time(entry_path(key),
                              fs::file_time_type::clock::now(), ec);
          return true;
        }
      }
    }
    // A file that exists but does not authenticate is corruption (or a
    // hash collision's foreign key — equally unusable at this address):
    // move it aside so it stops failing every future lookup, keep the
    // bytes for post-mortems. Stream closed above so the rename is clean.
    if (existed) quarantine_entry(entry_path(key));
  }
  misses_.fetch_add(1);
  return false;
}

void ResultStore::quarantine_entry(const std::string& path) {
  std::error_code ec;
  const fs::path dir = fs::path(root_) / kQuarantineDir;
  fs::create_directories(dir, ec);
  if (!ec) {
    // Same uniqueness scheme as the write path: (pid, tid, counter) makes
    // concurrent quarantines of the same entry land on distinct names,
    // and the ".bad" extension keeps them from ever reading as entries.
    const std::string dest =
        (dir / fs::path(path).stem()).string() +
        unique_tmp_path("").substr(4) + ".bad";  // strip the ".tmp" prefix
    fs::rename(path, dest, ec);
    if (!ec) {
      quarantined_.fetch_add(1);
      return;
    }
  }
  // Could not move it (or make the directory): removing the corrupt file
  // still stops the repeated parse failures. A concurrent quarantine
  // winning the rename race lands here with ENOENT — then the other
  // process already took the evidence and there is nothing to count.
  if (fs::remove(path, ec)) quarantined_.fetch_add(1);
}

void ResultStore::save(const CellKey& key, const SimResult& r) {
  if (!key.cacheable) return;
  const std::string path = entry_path(key);
  const fs::path target(path);
  std::error_code ec;
  fs::create_directories(target.parent_path(), ec);

  const std::string tmp = unique_tmp_path(path);
  {
    std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
    AFS_CHECK_MSG(outf.good(), "cannot open store temp file " << tmp);
    outf << entry_content(key, r);
    outf.flush();
    AFS_CHECK_MSG(outf.good(), "cannot write store temp file " << tmp);
  }
  commit_file_atomic(tmp, path);
  writes_.fetch_add(1);
}

double ResultStore::hit_rate() const {
  const double h = static_cast<double>(hits_.load());
  const double m = static_cast<double>(misses_.load());
  return h + m > 0.0 ? h / (h + m) : 0.0;
}

StoreStats ResultStore::scan() const {
  StoreStats stats;
  for (const EntryInfo& e : list_entries(root_)) {
    ++stats.entries;
    stats.bytes += e.bytes;
  }
  for (const EntryInfo& q : list_quarantine(root_)) {
    ++stats.quarantined;
    stats.quarantine_bytes += q.bytes;
  }
  return stats;
}

GcOutcome ResultStore::gc(const GcOptions& opts) const {
  std::vector<EntryInfo> entries = list_entries(root_);
  for (EntryInfo& q : list_quarantine(root_)) entries.push_back(std::move(q));

  GcOutcome out;
  out.scanned = static_cast<std::int64_t>(entries.size());
  for (const EntryInfo& e : entries) out.bytes_before += e.bytes;
  out.bytes_after = out.bytes_before;

  auto evict = [&](const EntryInfo& e) {
    std::error_code ec;
    if (fs::remove(e.path, ec)) {
      ++out.evicted;
      if (e.quarantined) ++out.quarantine_evicted;
      out.bytes_after -= e.bytes;
    }
  };

  // Age pass: anything untouched for longer than the bound goes.
  std::vector<EntryInfo> survivors;
  if (opts.max_age_days > 0.0) {
    const auto cutoff =
        fs::file_time_type::clock::now() -
        std::chrono::duration_cast<fs::file_time_type::duration>(
            std::chrono::duration<double>(opts.max_age_days * 86400.0));
    for (const EntryInfo& e : entries) {
      if (e.mtime < cutoff)
        evict(e);
      else
        survivors.push_back(e);
    }
  } else {
    survivors = std::move(entries);
  }

  // Size pass: quarantined files first (they serve no lookup), then
  // least-recently-used entries, until under the byte bound.
  if (opts.max_bytes >= 0 && out.bytes_after > opts.max_bytes) {
    std::sort(survivors.begin(), survivors.end(),
              [](const EntryInfo& a, const EntryInfo& b) {
                if (a.quarantined != b.quarantined) return a.quarantined;
                return a.mtime != b.mtime ? a.mtime < b.mtime
                                          : a.path < b.path;
              });
    for (const EntryInfo& e : survivors) {
      if (out.bytes_after <= opts.max_bytes) break;
      evict(e);
    }
  }
  return out;
}

ScrubOutcome ResultStore::verify() {
  ScrubOutcome out;
  const auto now = fs::file_time_type::clock::now();
  // Grace period for temp files: a writer mid-commit holds its temp for
  // milliseconds; anything a minute old was orphaned by a kill.
  const auto tmp_cutoff = now - std::chrono::minutes(1);
  // Clock-skew slack before an mtime counts as "in the future".
  const auto future_cutoff = now + std::chrono::minutes(5);

  std::error_code ec;
  std::vector<fs::path> entries, tmps;
  for (fs::recursive_directory_iterator it(root_, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_directory(ec) && it->path().filename() == kQuarantineDir) {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    if (p.extension() == ".cell")
      entries.push_back(p);
    else if (p.filename().string().find(".tmp.") != std::string::npos)
      tmps.push_back(p);
  }

  for (const fs::path& p : tmps) {
    const auto mtime = fs::last_write_time(p, ec);
    if (ec || mtime >= tmp_cutoff) continue;
    if (fs::remove(p, ec)) ++out.tmp_removed;
  }

  for (const fs::path& p : entries) {
    ++out.scanned;
    std::string content;
    {
      std::ifstream in(p, std::ios::binary);
      if (!in) continue;  // vanished under us (concurrent gc): not corrupt
      std::ostringstream buf;
      buf << in.rdbuf();
      content = buf.str();
    }

    // Self-validation plus the address check the filename encodes: an
    // entry whose embedded key hashes elsewhere can never be served from
    // this path — it is corruption (or a misplaced copy), not data.
    ParsedEntry e;
    const bool fields_ok = parse_entry_fields(content, e);
    const bool address_ok =
        fields_ok && p.stem().string() == hex64(fnv1a64(e.key_text));
    if (!fields_ok || !address_ok) {
      quarantine_entry(p.string());
      ++out.corrupt;
      continue;
    }

    const auto mtime = fs::last_write_time(p, ec);
    if (!ec && mtime > future_cutoff) {
      // A future-dated entry would survive every age pass and sort last
      // in the LRU — clamp it so gc() ordering means something.
      fs::last_write_time(p, now, ec);
      if (!ec) ++out.mtime_repaired;
    }
    ++out.ok;
  }
  return out;
}

}  // namespace afs
