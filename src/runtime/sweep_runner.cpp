#include "runtime/sweep_runner.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "runtime/cell_executor.hpp"
#include "runtime/thread_pool.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace afs {
namespace {

constexpr const char* kCellSchema = "afs-cell-v1";
constexpr const char* kManifestSchema = "afs-sweep-manifest-v1";
constexpr const char* kManifestName = "MANIFEST";

/// The sweep's identity: its id plus the full cell grid (and the cell
/// schema version, so a format change invalidates old checkpoints). A
/// manifest whose identity differs describes a different sweep — its
/// checkpoints must not be merged into this one.
std::string sweep_identity(const std::string& sweep_id,
                           const std::vector<SweepCellSpec>& cells) {
  std::uint64_t h = fnv1a64(kCellSchema);
  h = fnv1a64(sweep_id, h);
  for (const SweepCellSpec& c : cells) {
    h = fnv1a64(c.label, h);
    h = fnv1a64(std::to_string(c.procs), h);
  }
  return hex64(h);
}

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);  // hexfloat: exact round-trip
  return buf;
}

std::string json_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double elapsed_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string fmt_secs(double s, int precision = 2) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", precision, s);
  return buf;
}

}  // namespace

void SweepOptions::validate() const {
  AFS_CHECK_MSG(jobs >= 1 && jobs <= 256, "SweepOptions.jobs " << jobs
                                              << " outside 1..256");
  AFS_CHECK_MSG(cell_timeout >= 0.0, "SweepOptions.cell_timeout < 0");
  AFS_CHECK_MSG(sweep_timeout >= 0.0, "SweepOptions.sweep_timeout < 0");
  AFS_CHECK_MSG(max_retries >= 0, "SweepOptions.max_retries < 0");
  AFS_CHECK_MSG(backoff_base >= 0.0, "SweepOptions.backoff_base < 0");
  AFS_CHECK_MSG(backoff_max >= backoff_base,
                "SweepOptions.backoff_max < backoff_base");
}

bool SweepOutcome::invariant_break() const {
  for (const CellFailure& f : failures)
    if (f.kind == "invariant") return true;
  return false;
}

double retry_backoff(const SweepOptions& opts, const std::string& label,
                     int procs, int attempt) {
  AFS_CHECK(attempt >= 1);
  // A zero base means "retry immediately" regardless of attempt — and
  // keeps the 0 exact instead of 0 * jitter's signed-zero edge cases.
  if (opts.backoff_base <= 0.0) return 0.0;
  // One independent, reproducible stream per (seed, cell, attempt): the
  // jitter decorrelates cells retrying at once without wall-clock input.
  std::uint64_t h = fnv1a64(label, opts.retry_seed ^ 0x9e3779b97f4a7c15ULL);
  h = fnv1a64(std::to_string(procs), h);
  h = fnv1a64(std::to_string(attempt), h);
  Xoshiro256 rng(h);
  const double jitter = 0.5 + rng.next_double();  // [0.5, 1.5)
  // base * 2^(attempt-1), with the exponent clamped so a huge attempt
  // count cannot push ldexp to +inf (inf * jitter is still inf, which
  // min() would hide — but an inf intermediate is UB bait under
  // -ffast-math and trips UBSan-adjacent checks; clamp deterministically
  // instead). 64 doublings already exceed any finite backoff_max.
  const int doublings = std::min(attempt - 1, 64);
  const double exp = std::ldexp(opts.backoff_base, doublings);
  return std::min(exp * jitter, opts.backoff_max);
}

std::string serialize_sim_result(const SimResult& r) {
  std::ostringstream os;
  os << kCellSchema << '\n';
  auto d = [&](const char* key, double v) {
    os << key << ' ' << fmt_double(v) << '\n';
  };
  auto i = [&](const char* key, std::int64_t v) {
    os << key << ' ' << v << '\n';
  };
  d("makespan", r.makespan);
  d("busy", r.busy);
  d("sync", r.sync);
  d("comm", r.comm);
  d("idle", r.idle);
  d("barrier", r.barrier);
  d("stall", r.stall_time);
  i("hits", r.hits);
  i("misses", r.misses);
  i("inval", r.invalidations);
  d("units", r.units_transferred);
  i("local", r.local_grabs);
  i("remote", r.remote_grabs);
  i("central", r.central_grabs);
  i("iters", r.iterations);
  i("lost", r.lost_processor_count);
  i("stolen", r.stolen_under_fault);
  i("abandoned", r.abandoned_iterations);
  i("loops", r.sched_stats.loops);
  i("queues", static_cast<std::int64_t>(r.sched_stats.queues.size()));
  for (const QueueStats& q : r.sched_stats.queues)
    os << "q " << q.local_grabs << ' ' << q.remote_grabs << ' '
       << q.iters_local << ' ' << q.iters_remote << '\n';
  // Optional trace-derived enrichment: written only when computed, so
  // cells serialized before the fields existed stay byte-identical and
  // the parser below accepts both generations under the same schema id.
  if (r.trace_affinity_score >= 0.0)
    d("xaff", r.trace_affinity_score);
  if (r.trace_imbalance >= 0.0) d("ximb", r.trace_imbalance);
  os << "end\n";
  return os.str();
}

bool parse_sim_result(const std::string& text, SimResult& out) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kCellSchema) return false;

  SimResult r;
  auto next_kv = [&](const char* key, std::string& value) {
    if (!std::getline(is, line)) return false;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos || line.substr(0, sp) != key) return false;
    value = line.substr(sp + 1);
    return !value.empty();
  };
  auto d = [&](const char* key, double& v) {
    std::string value;
    if (!next_kv(key, value)) return false;
    char* end = nullptr;
    v = std::strtod(value.c_str(), &end);  // strtod accepts %a hexfloats
    return end != value.c_str() && *end == '\0';
  };
  auto i = [&](const char* key, std::int64_t& v) {
    std::string value;
    if (!next_kv(key, value)) return false;
    char* end = nullptr;
    v = std::strtoll(value.c_str(), &end, 10);
    return end != value.c_str() && *end == '\0';
  };

  std::int64_t queues = 0;
  if (!(d("makespan", r.makespan) && d("busy", r.busy) && d("sync", r.sync) &&
        d("comm", r.comm) && d("idle", r.idle) && d("barrier", r.barrier) &&
        d("stall", r.stall_time) && i("hits", r.hits) &&
        i("misses", r.misses) && i("inval", r.invalidations) &&
        d("units", r.units_transferred) && i("local", r.local_grabs) &&
        i("remote", r.remote_grabs) && i("central", r.central_grabs) &&
        i("iters", r.iterations) && i("lost", r.lost_processor_count) &&
        i("stolen", r.stolen_under_fault) &&
        i("abandoned", r.abandoned_iterations) &&
        i("loops", r.sched_stats.loops) && i("queues", queues)))
    return false;
  if (queues < 0 || queues > 1 << 20) return false;

  r.sched_stats.queues.resize(static_cast<std::size_t>(queues));
  for (QueueStats& q : r.sched_stats.queues) {
    if (!std::getline(is, line)) return false;
    std::istringstream qs(line);
    std::string tag;
    if (!(qs >> tag >> q.local_grabs >> q.remote_grabs >> q.iters_local >>
          q.iters_remote) ||
        tag != "q")
      return false;
  }
  // Between the q-lines and "end": optional `xaff`/`ximb` enrichment
  // lines (absent in entries written before those fields existed). The
  // serializer writes them only when >= 0; anything else (negative, NaN)
  // would not round-trip, so it is corrupt.
  auto parse_x = [&](const std::string& value, double& v) {
    char* end = nullptr;
    v = std::strtod(value.c_str(), &end);
    return end != value.c_str() && *end == '\0' && v >= 0.0;
  };
  for (;;) {
    if (!std::getline(is, line)) return false;
    if (line == "end") break;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) return false;
    const std::string key = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    if (key == "xaff") {
      if (!parse_x(value, r.trace_affinity_score)) return false;
    } else if (key == "ximb") {
      if (!parse_x(value, r.trace_imbalance)) return false;
    } else {
      return false;
    }
  }
  // Accept only the serializer's own text. The field parsers above skip
  // leading blanks and stop at trailing bytes on a q-line, so a damaged
  // line could otherwise decode to a value its bytes do not spell.
  if (serialize_sim_result(r) != text) return false;

  out = r;
  return true;
}

std::string cell_checkpoint_path(const std::string& dir,
                                 const std::string& label, int procs) {
  std::string safe;
  safe.reserve(label.size());
  for (char c : label)
    safe += (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
             c == '.')
                ? c
                : '_';
  return dir + "/" + safe + "-" + hex64(fnv1a64(label)).substr(8) + "_P" +
         std::to_string(procs) + ".cell";
}

std::string failure_report_json(const std::string& sweep_id,
                                const SweepOutcome& outcome) {
  std::ostringstream os;
  os << "{\"schema\":\"afs-sweep-failures-v1\",\"sweep\":\""
     << json_escaped(sweep_id) << "\",\"cells_total\":" << outcome.cells_total
     << ",\"cells_completed\":"
     << outcome.cells_total - static_cast<int>(outcome.failures.size())
     << ",\"cells_failed\":" << outcome.failures.size() << ",\"failures\":[";
  for (std::size_t k = 0; k < outcome.failures.size(); ++k) {
    const CellFailure& f = outcome.failures[k];
    if (k) os << ',';
    os << "{\"scheduler\":\"" << json_escaped(f.label)
       << "\",\"procs\":" << f.procs << ",\"kind\":\"" << json_escaped(f.kind)
       << "\",\"attempts\":" << f.attempts << ",\"message\":\""
       << json_escaped(f.message) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

namespace {

/// Removes every per-cell checkpoint (and stray temp file) under `dir`.
void clear_checkpoints(const std::filesystem::path& dir) {
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.ends_with(".cell") ||
        name.find(".cell.tmp.") != std::string::npos)
      std::filesystem::remove(e.path(), ec);
  }
  std::filesystem::remove(dir / kManifestName, ec);
}

bool manifest_matches(const std::filesystem::path& dir,
                      const std::string& identity) {
  std::ifstream in(dir / kManifestName);
  if (!in) return false;
  std::string schema, key, value;
  if (!std::getline(in, schema) || schema != kManifestSchema) return false;
  while (in >> key >> value)
    if (key == "identity") return value == identity;
  return false;
}

std::string manifest_content(const std::string& sweep_id,
                             const std::vector<SweepCellSpec>& cells,
                             const std::string& identity) {
  std::ostringstream os;
  os << kManifestSchema << '\n'
     << "sweep " << sweep_id << '\n'
     << "cells " << cells.size() << '\n'
     << "identity " << identity << '\n';
  return os.str();
}

enum class CellState : char { kPending, kOk, kFailed };

}  // namespace

SweepOutcome run_sweep(const std::string& sweep_id,
                       const std::vector<SweepCellSpec>& cells,
                       const SweepOptions& opts, std::ostream* log) {
  opts.validate();
  for (std::size_t a = 0; a < cells.size(); ++a) {
    AFS_CHECK_MSG(cells[a].run != nullptr && !cells[a].label.empty(),
                  "sweep cell " << a << " has no runner or empty label");
    for (std::size_t b = a + 1; b < cells.size(); ++b)
      AFS_CHECK_MSG(cells[a].label != cells[b].label ||
                        cells[a].procs != cells[b].procs,
                    "duplicate sweep cell (" << cells[a].label << ", P="
                                             << cells[a].procs << ")");
  }

  SweepOutcome outcome;
  outcome.cells_total = static_cast<int>(cells.size());
  std::vector<CellState> state(cells.size(), CellState::kPending);

  // ---- checkpoint directory: load (resume) or reset (cold start) ----
  const bool ckpt = !opts.checkpoint_dir.empty();
  const std::filesystem::path dir(opts.checkpoint_dir);
  if (ckpt) {
    std::filesystem::create_directories(dir);
    const std::string identity = sweep_identity(sweep_id, cells);
    const bool match = manifest_matches(dir, identity);
    if (opts.resume && match) {
      for (std::size_t k = 0; k < cells.size(); ++k) {
        std::ifstream in(
            cell_checkpoint_path(opts.checkpoint_dir, cells[k].label,
                                 cells[k].procs));
        if (!in) continue;
        std::ostringstream buf;
        buf << in.rdbuf();
        SimResult r;
        if (!parse_sim_result(buf.str(), r)) continue;  // corrupt: recompute
        outcome.results[cells[k].label][cells[k].procs] = r;
        state[k] = CellState::kOk;
        ++outcome.cells_resumed;
      }
      if (log)
        *log << "  [sweep " << sweep_id << "] resumed " << outcome.cells_resumed
             << "/" << cells.size() << " cells from " << opts.checkpoint_dir
             << "\n";
    } else {
      if (opts.resume && log)
        *log << "  [sweep " << sweep_id << "] no matching checkpoint manifest"
             << " in " << opts.checkpoint_dir << "; recomputing all cells\n";
      clear_checkpoints(dir);
      write_file_atomic((dir / kManifestName).string(),
                        manifest_content(sweep_id, cells, identity));
    }
  }

  // ---- execute the remaining cells ----
  CancelToken sweep_token(opts.cancel);
  if (opts.sweep_timeout > 0.0) sweep_token.set_timeout(opts.sweep_timeout);

  std::mutex mu;  // guards outcome, state and log

  auto record_failure = [&](std::size_t k, std::string kind,
                            std::string message, int attempts) {
    std::scoped_lock lock(mu);
    state[k] = CellState::kFailed;
    outcome.failures.push_back({cells[k].label, cells[k].procs,
                                std::move(kind), std::move(message), attempts});
    const CellFailure& f = outcome.failures.back();
    if (log)
      *log << "  " << f.label << " P=" << f.procs << ": FAILED [" << f.kind
           << "] after " << f.attempts << " attempt(s): " << f.message << "\n";
  };

  auto run_cell = [&](std::size_t k) {
    const SweepCellSpec& cell = cells[k];
    const auto cell_start = std::chrono::steady_clock::now();
    int attempts = 0;
    for (;;) {
      if (sweep_token.cancelled()) {
        record_failure(k, "cancelled", "sweep deadline/abort fired", attempts);
        return;
      }
      ++attempts;
      CancelToken token(&sweep_token);
      if (opts.cell_timeout > 0.0) token.set_timeout(opts.cell_timeout);
      try {
        SimResult r = cell.run(token);
        if (ckpt)
          write_file_atomic(
              cell_checkpoint_path(opts.checkpoint_dir, cell.label, cell.procs),
              serialize_sim_result(r));
        std::scoped_lock lock(mu);
        state[k] = CellState::kOk;
        outcome.results[cell.label][cell.procs] = std::move(r);
        if (log)
          *log << "  " << cell.label << " P=" << cell.procs << ": done ("
               << fmt_secs(elapsed_s(cell_start)) << "s"
               << (attempts > 1 ? ", retried" : "") << ")\n";
        return;
      } catch (const CancelledError& e) {
        // Sweep-wide cancellation and a cell deadline both surface here;
        // the sweep token disambiguates. Neither is retried — a timed-out
        // cell would time out again.
        record_failure(k, sweep_token.cancelled() ? "cancelled" : "timeout",
                       e.what(), attempts);
        return;
      } catch (const CheckFailure& e) {
        // Broken invariant: deterministic, never transient. Not retried.
        record_failure(k, "invariant", e.what(), attempts);
        return;
      } catch (const PoisonedCellError& e) {
        // The cell is blacklisted by its executor (it crashed workers
        // repeatedly): deterministic for the executor's lifetime, so a
        // retry would only burn another restart token. Not retried.
        record_failure(k, "poison", e.what(), attempts);
        return;
      } catch (const DegradedError& e) {
        // The executor is in cache-only mode (restart budget exhausted).
        // Recovery is time-based, not attempt-based — retrying here would
        // spin against an empty token bucket. Not retried.
        record_failure(k, "degraded", e.what(), attempts);
        return;
      } catch (const std::exception& e) {
        if (attempts > opts.max_retries) {
          record_failure(k, "error", e.what(), attempts);
          return;
        }
        const double delay =
            retry_backoff(opts, cell.label, cell.procs, attempts);
        if (log) {
          std::scoped_lock lock(mu);
          *log << "  " << cell.label << " P=" << cell.procs << ": attempt "
               << attempts << " failed (" << e.what() << "); retrying in "
               << fmt_secs(delay, 3) << "s\n";
        }
        if (opts.sleep_fn)
          opts.sleep_fn(delay);
        else
          std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      }
    }
  };

  if (opts.jobs == 1) {
    // Serial mode runs in the caller's thread in declaration order — the
    // exact legacy execution order, kept as the bit-identity reference.
    for (std::size_t k = 0; k < cells.size(); ++k)
      if (state[k] == CellState::kPending) run_cell(k);
  } else {
    // A borrowed pool (driver-wide) or a private one per sweep. Either
    // way the pool's cancel token is scoped to this sweep: installed
    // before submission, cleared after the drain so the next sweep on a
    // shared pool starts with a clean slate.
    std::optional<ThreadPool> own;
    ThreadPool& pool = opts.pool ? *opts.pool : own.emplace(opts.jobs);
    pool.set_cancel(&sweep_token);
    for (std::size_t k = 0; k < cells.size(); ++k)
      if (state[k] == CellState::kPending)
        pool.submit([&run_cell, k] { run_cell(k); });
    pool.drain();
    pool.set_cancel(nullptr);
  }

  // Cells the pool discarded after a sweep-wide cancellation never ran.
  for (std::size_t k = 0; k < cells.size(); ++k)
    if (state[k] == CellState::kPending)
      record_failure(k, "cancelled", "sweep cancelled before the cell started",
                     0);

  std::sort(outcome.failures.begin(), outcome.failures.end(),
            [](const CellFailure& a, const CellFailure& b) {
              return a.label != b.label ? a.label < b.label
                                        : a.procs < b.procs;
            });
  return outcome;
}

}  // namespace afs
