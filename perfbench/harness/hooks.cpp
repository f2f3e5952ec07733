#include "hooks.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <thread>

#include "experiments/registry.hpp"
#include "runtime/sweep_runner.hpp"
#include "sim/machine_sim.hpp"
#include "store/result_store.hpp"

namespace perfbench {

namespace {

thread_local Recorder::Context t_context;

int thread_tag() {
  static std::atomic<int> next{0};
  thread_local const int tag = ++next;
  return tag;
}

void json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

void json_array(std::ostream& out, const std::vector<double>& v) {
  out << '[';
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? "," : "") << v[i];
  out << ']';
}

void write_at_exit() {
  const std::string base = std::string(std::getenv(kTraceDirEnv)) + "/" +
                           std::to_string(::getpid());
  const Recorder& rec = Recorder::get();
  std::ofstream spans(base + ".spans.jsonl");
  rec.write_spans(spans, static_cast<long>(::getpid()));
  std::ofstream counters(base + ".counters.json");
  rec.write_counters(counters);
}

// Recorder::get() runs before atexit(), so the recorder outlives the
// handler.
[[maybe_unused]] const bool kArmed = [] {
  const char* dir = std::getenv(kTraceDirEnv);
  const bool on = dir != nullptr && *dir != '\0';
  Recorder::get().set_enabled(on);
  if (on) std::atexit(write_at_exit);
  return on;
}();

}  // namespace

std::int64_t clock_pair_ns() {
  static const std::int64_t cost = [] {
    std::vector<std::int64_t> d(20001);
    for (auto& x : d) {
      const std::int64_t t0 = now_ns();
      x = now_ns() - t0;
    }
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    return d[d.size() / 2];
  }();
  return cost;
}

Recorder& Recorder::get() {
  static Recorder r;
  return r;
}

std::int64_t Recorder::begin(const char* name, const char* layer,
                             std::string label) {
  Span s;
  s.parent = t_context.parent;
  s.req = t_context.req;
  s.name = name;
  s.layer = layer;
  s.label = std::move(label);
  s.tid = thread_tag();
  s.t0 = now_ns();
  {
    std::scoped_lock lock(mu_);
    s.id = static_cast<std::int64_t>(spans_.size()) + 1;
    spans_.push_back(std::move(s));
    t_context.parent = spans_.back().id;
    return t_context.parent;
  }
}

void Recorder::end(std::int64_t id) {
  const std::int64_t t1 = now_ns();
  std::scoped_lock lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id - 1)];
  s.t1 = t1;
  t_context.parent = s.parent;
}

Recorder::Context Recorder::context() { return t_context; }
void Recorder::set_context(Context c) { t_context = c; }

Counters Recorder::counters() const {
  std::scoped_lock lock(mu_);
  return counters_;
}

void Recorder::reset() {
  std::scoped_lock lock(mu_);
  spans_.clear();
  counters_ = Counters{};
  requests_.store(0);
}

void Recorder::write_spans(std::ostream& out, long pid) const {
  std::scoped_lock lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"req\":" << s.req << ",\"pid\":" << pid << ",\"tid\":" << s.tid
        << ",\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
        << "\",\"label\":";
    json_string(out, s.label);
    out << ",\"t0\":" << s.t0 << ",\"t1\":" << s.t1;
    if (s.child_ns != 0) out << ",\"child_ns\":" << s.child_ns;
    if (s.queued != 0) out << ",\"queued\":" << s.queued;
    if (s.jobs != 0) out << ",\"jobs\":" << s.jobs;
    out << "}\n";
  }
}

void Recorder::write_counters(std::ostream& out) const {
  std::scoped_lock lock(mu_);
  const Counters& c = counters_;
  out << "{\"sim_cells\":" << c.sim_cells
      << ",\"sim_iterations\":" << c.sim_iterations
      << ",\"sim_accesses\":" << c.sim_accesses
      << ",\"sim_misses\":" << c.sim_misses
      << ",\"sim_invalidations\":" << c.sim_invalidations
      << ",\"sim_ns\":" << c.sim_ns << ",\"sched_grabs\":" << c.sched_grabs
      << ",\"sched_steals\":" << c.sched_steals
      << ",\"sched_chunks\":" << c.sched_chunks
      << ",\"sched_ns\":" << c.sched_ns << ",\"store_hits\":" << c.store_hits
      << ",\"store_misses\":" << c.store_misses
      << ",\"store_writes\":" << c.store_writes
      << ",\"resumed_cells\":" << c.resumed_cells << ",\"store_get_us\":";
  json_array(out, c.store_get_us);
  out << ",\"store_put_us\":";
  json_array(out, c.store_put_us);
  out << "}";
}

}  // namespace perfbench

// ---------------------------------------------------------------------------
// --wrap shims. The linker renames every undefined reference to SYM into
// __wrap_SYM and makes __real_SYM the original definition. A member
// function is the free function of (this, args...) in the Itanium ABI,
// and a by-value class result is returned through the same hidden pointer
// either way, so these declarations match the definitions they stand for.

using perfbench::Recorder;

extern "C" {

int __real__ZN3afs14run_experimentERKNS_10ExperimentERKNS_17ExperimentContextERSo(
    const afs::Experiment& e, const afs::ExperimentContext& ctx,
    std::ostream& out);

int __wrap__ZN3afs14run_experimentERKNS_10ExperimentERKNS_17ExperimentContextERSo(
    const afs::Experiment& e, const afs::ExperimentContext& ctx,
    std::ostream& out) {
  Recorder& rec = Recorder::get();
  if (!rec.enabled())
    return __real__ZN3afs14run_experimentERKNS_10ExperimentERKNS_17ExperimentContextERSo(
        e, ctx, out);
  const Recorder::Context saved = Recorder::context();
  if (saved.parent == 0) Recorder::set_context({0, rec.next_request()});
  const std::int64_t id = rec.begin("exp.run", "experiments", e.id);
  int rc = 0;
  try {
    rc = __real__ZN3afs14run_experimentERKNS_10ExperimentERKNS_17ExperimentContextERSo(
        e, ctx, out);
  } catch (...) {
    rec.end(id);
    Recorder::set_context(saved);
    throw;
  }
  rec.end(id);
  Recorder::set_context(saved);
  return rc;
}

afs::SweepOutcome
__real__ZN3afs9run_sweepERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorINS_13SweepCellSpecESaIS9_EERKNS_12SweepOptionsEPSo(
    const std::string& sweep_id, const std::vector<afs::SweepCellSpec>& cells,
    const afs::SweepOptions& opts, std::ostream* log);

afs::SweepOutcome
__wrap__ZN3afs9run_sweepERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorINS_13SweepCellSpecESaIS9_EERKNS_12SweepOptionsEPSo(
    const std::string& sweep_id, const std::vector<afs::SweepCellSpec>& cells,
    const afs::SweepOptions& opts, std::ostream* log) {
  Recorder& rec = Recorder::get();
  if (!rec.enabled())
    return __real__ZN3afs9run_sweepERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorINS_13SweepCellSpecESaIS9_EERKNS_12SweepOptionsEPSo(
        sweep_id, cells, opts, log);
  const std::int64_t id = rec.begin("runtime.sweep", "runtime", sweep_id);
  const int jobs = std::max(opts.jobs, 1);
  rec.annotate(id, [jobs](perfbench::Span& s) { s.jobs = jobs; });
  const Recorder::Context ctx = Recorder::context();
  const std::int64_t queued = perfbench::now_ns();
  // Each cell re-enters the sweep's context on whichever thread runs it,
  // so its spans (and the sim/store spans under it) keep their parent.
  std::vector<afs::SweepCellSpec> wrapped = cells;
  for (afs::SweepCellSpec& c : wrapped) {
    c.run = [inner = std::move(c.run), ctx, queued,
             label = c.label + "/P" + std::to_string(c.procs)](
                const afs::CancelToken& token) {
      Recorder& r = Recorder::get();
      const Recorder::Context saved = Recorder::context();
      Recorder::set_context(ctx);
      const std::int64_t cid = r.begin("runtime.cell", "runtime", label);
      r.annotate(cid, [queued](perfbench::Span& s) { s.queued = queued; });
      try {
        afs::SimResult res = inner(token);
        r.end(cid);
        Recorder::set_context(saved);
        return res;
      } catch (...) {
        r.end(cid);
        Recorder::set_context(saved);
        throw;
      }
    };
  }
  afs::SweepOutcome out;
  try {
    out = __real__ZN3afs9run_sweepERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorINS_13SweepCellSpecESaIS9_EERKNS_12SweepOptionsEPSo(
        sweep_id, wrapped, opts, log);
  } catch (...) {
    rec.end(id);
    throw;
  }
  rec.end(id);
  rec.with_counters(
      [&](perfbench::Counters& c) { c.resumed_cells += out.cells_resumed; });
  return out;
}

afs::SimResult __real__ZN3afs10MachineSim3runERKNS_11LoopProgramERNS_9SchedulerEi(
    afs::MachineSim* self, const afs::LoopProgram& program,
    afs::Scheduler& sched, int p);

afs::SimResult __wrap__ZN3afs10MachineSim3runERKNS_11LoopProgramERNS_9SchedulerEi(
    afs::MachineSim* self, const afs::LoopProgram& program,
    afs::Scheduler& sched, int p) {
  Recorder& rec = Recorder::get();
  if (!rec.enabled())
    return __real__ZN3afs10MachineSim3runERKNS_11LoopProgramERNS_9SchedulerEi(
        self, program, sched, p);
  perfbench::ForwardingScheduler fwd(sched);
  const std::int64_t id = rec.begin("sim.run", "sim", program.name);
  afs::SimResult r;
  try {
    r = __real__ZN3afs10MachineSim3runERKNS_11LoopProgramERNS_9SchedulerEi(
        self, program, fwd, p);
  } catch (...) {
    rec.end(id);
    throw;
  }
  rec.end(id);
  const std::int64_t sched_ns = std::max<std::int64_t>(
      0, fwd.next_ns() - fwd.grabs() * perfbench::clock_pair_ns());
  std::int64_t dur = 0;
  rec.annotate(id, [&](perfbench::Span& s) {
    s.child_ns = sched_ns;
    dur = s.t1 - s.t0;
  });
  rec.with_counters([&](perfbench::Counters& c) {
    ++c.sim_cells;
    c.sim_iterations += r.iterations;
    c.sim_accesses += r.hits + r.misses;
    c.sim_misses += r.misses;
    c.sim_invalidations += r.invalidations;
    c.sim_ns += dur;
    c.sched_grabs += fwd.grabs();
    c.sched_steals += fwd.steals();
    c.sched_chunks += fwd.chunks();
    c.sched_ns += sched_ns;
  });
  return r;
}

bool __real__ZN3afs11ResultStore4loadERKNS_7CellKeyERNS_9SimResultE(
    afs::ResultStore* self, const afs::CellKey& key, afs::SimResult& out);

bool __wrap__ZN3afs11ResultStore4loadERKNS_7CellKeyERNS_9SimResultE(
    afs::ResultStore* self, const afs::CellKey& key, afs::SimResult& out) {
  Recorder& rec = Recorder::get();
  if (!rec.enabled())
    return __real__ZN3afs11ResultStore4loadERKNS_7CellKeyERNS_9SimResultE(
        self, key, out);
  const std::int64_t id = rec.begin("store.get", "store", "");
  const std::int64_t t0 = perfbench::now_ns();
  const bool hit =
      __real__ZN3afs11ResultStore4loadERKNS_7CellKeyERNS_9SimResultE(self, key,
                                                                     out);
  const double us = static_cast<double>(perfbench::now_ns() - t0) / 1e3;
  rec.end(id);
  rec.with_counters([&](perfbench::Counters& c) {
    if (hit) {
      ++c.store_hits;
      c.store_get_us.push_back(us);
    } else {
      ++c.store_misses;
    }
  });
  return hit;
}

void __real__ZN3afs11ResultStore4saveERKNS_7CellKeyERKNS_9SimResultE(
    afs::ResultStore* self, const afs::CellKey& key, const afs::SimResult& r);

void __wrap__ZN3afs11ResultStore4saveERKNS_7CellKeyERKNS_9SimResultE(
    afs::ResultStore* self, const afs::CellKey& key, const afs::SimResult& r) {
  Recorder& rec = Recorder::get();
  if (!rec.enabled()) {
    __real__ZN3afs11ResultStore4saveERKNS_7CellKeyERKNS_9SimResultE(self, key,
                                                                   r);
    return;
  }
  const std::int64_t id = rec.begin("store.put", "store", "");
  const std::int64_t t0 = perfbench::now_ns();
  __real__ZN3afs11ResultStore4saveERKNS_7CellKeyERKNS_9SimResultE(self, key, r);
  const double us = static_cast<double>(perfbench::now_ns() - t0) / 1e3;
  rec.end(id);
  rec.with_counters([&](perfbench::Counters& c) {
    ++c.store_writes;
    c.store_put_us.push_back(us);
  });
}

}  // extern "C"
