#include "layers.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "experiments/grid.hpp"
#include "experiments/registry.hpp"
#include "hooks.hpp"
#include "runtime/sweep_runner.hpp"
#include "service/protocol.hpp"
#include "service/worker.hpp"
#include "sim/machine_sim.hpp"
#include "sim/memory_system.hpp"
#include "trace/binary_sink.hpp"

namespace perfbench {

namespace {

/// Discards everything written to it; the trace sink's cost is the
/// encoding, not the disk.
class NullBuf final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double seconds_of(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

}  // namespace

ReplayResult replay_accesses(const afs::MachineConfig& machine, int p,
                             const std::vector<AccessRecord>& records) {
  afs::MemorySystem mem;
  mem.reset(machine, p);
  afs::SimResult counted;
  afs::MetricsFanout fanout(counted, nullptr);
  const auto pair = static_cast<double>(clock_pair_ns());
  ReplayResult out;
  for (const AccessRecord& r : records) {
    const std::int64_t misses_before = counted.misses;
    const std::int64_t t0 = now_ns();
    mem.access(r.proc, r.access, r.t, fanout);
    const double ns = static_cast<double>(now_ns() - t0) - pair;
    if (counted.misses != misses_before) {
      out.miss_ns += ns;
    } else {
      out.hit_ns += ns;
    }
  }
  out.hits = counted.hits;
  out.misses = counted.misses;
  return out;
}

SampleCell sample_cell(const std::string& experiment, const std::string& label,
                       int procs) {
  const afs::Experiment* e = afs::find_experiment(experiment);
  if (e == nullptr || !e->make_spec)
    throw std::runtime_error("no figure experiment '" + experiment + "'");
  SampleCell cell{e->make_spec(), 0, procs};
  for (std::size_t i = 0; i < cell.spec.schedulers.size(); ++i)
    if (cell.spec.schedulers[i].label == label) {
      cell.entry = i;
      return cell;
    }
  throw std::runtime_error(experiment + " has no scheduler " + label);
}

afs::SimResult run_cell(const SampleCell& cell, afs::MetricsSink* sink) {
  afs::SimOptions opts = cell.spec.sim_options;
  opts.trace = sink;
  afs::MachineSim sim(cell.spec.machine, opts);
  auto sched = cell.spec.schedulers[cell.entry].make();
  return sim.run(cell.spec.program, *sched, cell.procs);
}

namespace {

// fig15 cells: a central-queue and an affinity scheduler, at a mid and
// the largest processor count, so hits, misses and invalidations all
// occur in quantity.
const std::pair<const char*, int> kFig15Samples[] = {{"AFS", 16},
                                                     {"GSS", 57}};

std::string mem_json(std::vector<afs::SimResult>& sampled) {
  std::int64_t rec_hits = 0, rec_misses = 0, hits = 0, misses = 0;
  double hit_ns = 0.0, miss_ns = 0.0;
  for (const auto& [label, procs] : kFig15Samples) {
    const SampleCell cell = sample_cell("fig15", label, procs);
    AccessRecorder recorder;
    const afs::SimResult r = run_cell(cell, &recorder);
    sampled.push_back(r);
    rec_hits += r.hits;
    rec_misses += r.misses;
    // Best of three replays: the minimum is the least disturbed by the
    // host, and every replay must reproduce the recorded outcome.
    ReplayResult best;
    for (int i = 0; i < 3; ++i) {
      const ReplayResult rr = replay_accesses(cell.spec.machine, procs,
                                              recorder.records);
      if (rr.hits != r.hits || rr.misses != r.misses)
        throw std::runtime_error("memory replay diverged from the run");
      if (i == 0 || rr.hit_ns + rr.miss_ns < best.hit_ns + best.miss_ns)
        best = rr;
    }
    hits += best.hits;
    misses += best.misses;
    hit_ns += best.hit_ns;
    miss_ns += best.miss_ns;
  }
  std::ostringstream o;
  o << "\"mem_recorded_hits\":" << rec_hits
    << ",\"mem_recorded_misses\":" << rec_misses << ",\"mem_replay_hits\":"
    << hits << ",\"mem_replay_misses\":" << misses
    << ",\"mem_ns_per_hit\":" << (hits ? hit_ns / double(hits) : 0.0)
    << ",\"mem_ns_per_miss\":" << (misses ? miss_ns / double(misses) : 0.0);
  return o.str();
}

std::string trace_json() {
  const SampleCell cell = sample_cell("fig15", "AFS", 16);
  std::vector<double> plain, traced;
  std::int64_t events = 0;
  for (int i = 0; i < 3; ++i) {
    plain.push_back(seconds_of([&] { run_cell(cell, nullptr); }));
    NullBuf buf;
    std::ostream sink_out(&buf);
    afs::BinaryTraceSink sink(sink_out);
    traced.push_back(seconds_of([&] {
      run_cell(cell, &sink);
      sink.finalize();
    }));
    events = sink.records_written();
  }
  const double extra =
      *std::min_element(traced.begin(), traced.end()) -
      *std::min_element(plain.begin(), plain.end());
  std::ostringstream o;
  o << "\"trace_events\":" << events << ",\"trace_ns_per_event\":"
    << (events ? std::max(0.0, extra) * 1e9 / double(events) : 0.0);
  return o.str();
}

std::string serialize_json(const std::vector<afs::SimResult>& sampled) {
  constexpr int kRounds = 2000;
  std::vector<std::string> texts;
  const double ser = seconds_of([&] {
    for (int i = 0; i < kRounds; ++i)
      texts.push_back(afs::serialize_sim_result(
          sampled[static_cast<std::size_t>(i) % sampled.size()]));
  });
  afs::SimResult back;
  const double par = seconds_of([&] {
    for (const std::string& t : texts)
      if (!afs::parse_sim_result(t, back))
        throw std::runtime_error("parse_sim_result rejected its own output");
  });
  std::ostringstream o;
  o << "\"serialize_us\":" << ser * 1e6 / kRounds
    << ",\"parse_us\":" << par * 1e6 / kRounds;
  return o.str();
}

std::string frame_json(const std::string& script_path) {
  std::ifstream in(script_path);
  if (!in) throw std::runtime_error("cannot read script " + script_path);
  std::vector<std::string> lines;
  for (std::string l; std::getline(in, l);)
    if (!l.empty()) lines.push_back(l + "\n");
  constexpr int kRounds = 20;
  afs::service::Request req;
  afs::service::ProtocolError err;
  std::string frame;
  const double s = seconds_of([&] {
    for (int r = 0; r < kRounds; ++r)
      for (const std::string& l : lines) {
        afs::service::LineFramer framer;
        framer.feed(l.data(), l.size());
        if (!framer.next_frame(frame) ||
            !afs::service::parse_request(frame, req, err))
          throw std::runtime_error("script line failed to parse: " + l);
      }
  });
  std::ostringstream o;
  o << "\"frame_lines\":" << lines.size() << ",\"frame_parse_us\":"
    << (lines.empty() ? 0.0 : s * 1e6 / double(kRounds * lines.size()));
  return o.str();
}

std::string make_spec_json() {
  double total = 0.0;
  for (const afs::Experiment& e : afs::all_experiments())
    if (e.make_spec) total += seconds_of([&] { (void)e.make_spec(); });
  std::ostringstream o;
  o << "\"make_spec_s\":" << total;
  return o.str();
}

std::string ipc_json(const std::string& worker_exe) {
  afs::GridSpec g;
  g.kernel = "sor:64,4";
  g.machine = "iris";
  g.schedulers = "AFS";
  g.procs = {4};
  const afs::FigureSpec spec = afs::make_grid_experiment(g).make_spec();
  afs::CellExecSpec exec;
  exec.kernel = g.kernel;
  exec.machine = g.machine;
  exec.schedulers = g.schedulers;
  exec.procs = g.procs;

  afs::service::WorkerPoolOptions wopts;
  wopts.workers = 1;
  wopts.exe = worker_exe;
  afs::service::WorkerPool pool(wopts);
  std::string error;
  if (!pool.start(error))
    throw std::runtime_error("cannot start a sandbox worker: " + error);
  afs::CancelToken token;
  constexpr int kRounds = 41;
  std::vector<double> remote, local;
  for (int i = 0; i < kRounds; ++i) {
    remote.push_back(seconds_of(
        [&] { (void)pool.execute(exec, "AFS", 4, afs::EngineToggles{}, token); }));
    local.push_back(seconds_of([&] {
      (void)afs::run_figure_cell(spec, spec.schedulers[0], 4,
                                 spec.sim_options);
    }));
  }
  std::ostringstream o;
  o << "\"ipc_rtt_us\":" << (median(remote) - median(local)) * 1e6;
  return o.str();
}

}  // namespace

std::string micro_metrics_json(const std::string& script_path,
                               const std::string& worker_exe) {
  std::vector<afs::SimResult> sampled;
  std::string out = "{" + mem_json(sampled);
  out += "," + trace_json();
  out += "," + serialize_json(sampled);
  out += "," + frame_json(script_path);
  out += "," + make_spec_json();
  out += "," + ipc_json(worker_exe);
  out += ",\"clock_pair_ns\":" + std::to_string(clock_pair_ns()) + "}";
  return out;
}

}  // namespace perfbench
