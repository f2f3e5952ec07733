// Integration tests for the sweep daemon: an in-process SweepDaemon
// (signal handlers off, quiet log) served from a background thread and
// driven through real Unix-domain sockets via ServiceClient — the same
// transport `afs_sweep request` uses. Each test gets its own socket and
// out-dir under /tmp; the store is disabled so every run actually
// simulates (warm-store behavior is the soak test's subject).
#include "service/daemon.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "experiments/registry.hpp"
#include "runtime/thread_pool.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "support/test_dir.hpp"

namespace afs::service {
namespace {

using std::chrono::steady_clock;

// A grid small enough to finish in well under a second.
const char* const kFastGrid =
    "{\"verb\":\"grid\",\"kernel\":\"gauss:600\",\"machine\":\"butterfly1\","
    "\"schedulers\":\"SS\",\"procs\":\"1,2\"";
// A grid slow enough (seconds) that deadlines, drains and disconnects
// reliably interrupt it mid-flight.
const char* const kSlowGrid =
    "{\"verb\":\"grid\",\"kernel\":\"gauss:4000\",\"machine\":\"butterfly1\","
    "\"schedulers\":\"SS,GSS\",\"procs\":\"1,2,4,8,16\"";

class DaemonTest : public ::testing::Test {
 protected:
  void Start(const std::function<void(DaemonOptions&)>& tweak = nullptr) {
    static std::atomic<int> seq{0};
    dir_ = "/tmp/afs_daemon_test." + std::to_string(::getpid()) + "." +
           std::to_string(seq.fetch_add(1));
    std::filesystem::create_directories(dir_);
    DaemonOptions o;
    o.socket_path = dir_ + "/sock";
    o.cli.out_dir = dir_ + "/out";
    o.cli.no_store = true;
    o.drain_timeout = 2.0;
    o.install_signal_handlers = false;
    o.log = nullptr;
    if (tweak) tweak(o);
    daemon_.emplace(std::move(o));
    serve_thread_ = std::thread([this] { rc_ = daemon_->serve(); });
  }

  /// Initiates the drain and joins serve(). Safe to call twice.
  void Drain() {
    if (daemon_ && serve_thread_.joinable()) {
      daemon_->request_drain();
      serve_thread_.join();
    }
  }

  void TearDown() override {
    Drain();
    daemon_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Connects, retrying while serve() is still binding the socket.
  bool Connect(ServiceClient& c, double timeout_s = 10.0) {
    const auto deadline =
        steady_clock::now() + std::chrono::duration<double>(timeout_s);
    std::string error;
    while (steady_clock::now() < deadline) {
      if (c.connect(daemon_->options().socket_path, error)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "could not connect: " << error;
    return false;
  }

  /// Reads and parses the next response line.
  bool ReadJson(ServiceClient& c, JsonValue& v, double timeout_s = 10.0) {
    std::string line;
    if (!c.read_line(line, timeout_s)) return false;
    std::string error;
    const bool ok = parse_json(line, v, error);
    EXPECT_TRUE(ok) << "unparseable response: " << line << " (" << error
                    << ")";
    return ok;
  }

  /// Reads past "log" events only — an in-flight request streams its
  /// progress on the same connection, interleaving with replies to later
  /// pipelined requests.
  bool ReadNonLog(ServiceClient& c, JsonValue& v, double timeout_s = 10.0) {
    const auto deadline =
        steady_clock::now() + std::chrono::duration<double>(timeout_s);
    for (;;) {
      const double left =
          std::chrono::duration<double>(deadline - steady_clock::now())
              .count();
      if (left <= 0.0 || !ReadJson(c, v, left)) return false;
      const JsonValue* event = v.find("event");
      if (event == nullptr || !event->is_string()) return false;
      if (event->string != "log") return true;
    }
  }

  /// Reads past progress events ("accepted", "log") to the next terminal
  /// event ("done", "error", ...).
  bool ReadTerminal(ServiceClient& c, JsonValue& v, double timeout_s = 60.0) {
    const auto deadline =
        steady_clock::now() + std::chrono::duration<double>(timeout_s);
    for (;;) {
      const double left =
          std::chrono::duration<double>(deadline - steady_clock::now())
              .count();
      if (left <= 0.0 || !ReadJson(c, v, left)) return false;
      const JsonValue* event = v.find("event");
      if (event == nullptr || !event->is_string()) return false;
      if (event->string != "accepted" && event->string != "log") return true;
    }
  }

  static std::string EventOf(const JsonValue& v) {
    const JsonValue* e = v.find("event");
    return e != nullptr && e->is_string() ? e->string : "<none>";
  }

  static std::string CodeOf(const JsonValue& v) {
    const JsonValue* c = v.find("code");
    return c != nullptr && c->is_string() ? c->string : "<none>";
  }

  std::string dir_;
  std::optional<SweepDaemon> daemon_;
  std::thread serve_thread_;
  int rc_ = -1;
};

TEST_F(DaemonTest, HealthAndStatsAnswerInline) {
  Start();
  ServiceClient c;
  ASSERT_TRUE(Connect(c));
  ASSERT_TRUE(c.send_line("{\"verb\":\"health\",\"tag\":\"h1\"}"));
  JsonValue v;
  ASSERT_TRUE(ReadJson(c, v));
  EXPECT_EQ(EventOf(v), "health");
  ASSERT_NE(v.find("status"), nullptr);
  EXPECT_EQ(v.find("status")->string, "serving");
  ASSERT_NE(v.find("tag"), nullptr);
  EXPECT_EQ(v.find("tag")->string, "h1");
  EXPECT_DOUBLE_EQ(v.find("queue_depth")->number, 0.0);

  ASSERT_TRUE(c.send_line("{\"verb\":\"stats\"}"));
  ASSERT_TRUE(ReadJson(c, v));
  EXPECT_EQ(EventOf(v), "stats");
  for (const char* key :
       {"admitted", "rejected_overloaded", "rejected_draining",
        "protocol_errors", "completed", "failed", "cancelled",
        "deadline_expired", "connections_total", "queue_wait_ms_mean",
        "run_ms_mean"})
    EXPECT_NE(v.find(key), nullptr) << "stats missing " << key;

  // Zero-request round-trip: not a single request has finished, so the
  // latency means must be real JSON zeros. A naive sum/count would be
  // 0/0 = NaN, which json_number renders as null — ServiceStats'
  // guarded mean helpers are what keep these numeric.
  for (const char* key : {"queue_wait_ms_mean", "run_ms_mean"}) {
    const JsonValue* mean = v.find(key);
    ASSERT_NE(mean, nullptr);
    ASSERT_TRUE(mean->is_number()) << key << " is not a number (NaN->null?)";
    EXPECT_DOUBLE_EQ(mean->number, 0.0) << key;
  }
}

TEST_F(DaemonTest, UnknownExperimentRejectedDaemonKeepsServing) {
  Start();
  ServiceClient c;
  ASSERT_TRUE(Connect(c));
  ASSERT_TRUE(
      c.send_line("{\"verb\":\"run\",\"ids\":[\"no-such-experiment\"]}"));
  JsonValue v;
  ASSERT_TRUE(ReadTerminal(c, v));
  EXPECT_EQ(EventOf(v), "error");
  EXPECT_EQ(CodeOf(v), err::kUnknownExperiment);

  ASSERT_TRUE(c.send_line(
      "{\"verb\":\"grid\",\"kernel\":\"gauss:600\",\"machine\":\"iris\","
      "\"schedulers\":\"NOT-A-SCHEDULER\",\"procs\":\"1\"}"));
  ASSERT_TRUE(ReadTerminal(c, v));
  EXPECT_EQ(EventOf(v), "error");
  EXPECT_EQ(CodeOf(v), err::kBadGrid);

  ASSERT_TRUE(c.send_line("{\"verb\":\"health\"}"));
  ASSERT_TRUE(ReadJson(c, v));
  EXPECT_EQ(EventOf(v), "health");
}

TEST_F(DaemonTest, GridRunsToDoneWithCsv) {
  Start();
  ServiceClient c;
  ASSERT_TRUE(Connect(c));
  ASSERT_TRUE(c.send_line(std::string(kFastGrid) + ",\"tag\":\"g1\"}"));

  JsonValue v;
  ASSERT_TRUE(ReadJson(c, v));
  EXPECT_EQ(EventOf(v), "accepted");
  ASSERT_NE(v.find("request"), nullptr);

  ASSERT_TRUE(ReadTerminal(c, v));
  ASSERT_EQ(EventOf(v), "done") << "code=" << CodeOf(v);
  ASSERT_NE(v.find("ok"), nullptr);
  EXPECT_TRUE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("tag")->string, "g1");
  const JsonValue* experiments = v.find("experiments");
  ASSERT_NE(experiments, nullptr);
  ASSERT_EQ(experiments->array.size(), 1u);
  const JsonValue& exp = experiments->array[0];
  EXPECT_DOUBLE_EQ(exp.find("exit")->number, 0.0);
  const JsonValue* csvs = exp.find("csv");
  ASSERT_NE(csvs, nullptr);
  ASSERT_FALSE(csvs->array.empty());
  for (const JsonValue& path : csvs->array)
    EXPECT_TRUE(std::filesystem::exists(path.string))
        << "reported CSV missing on disk: " << path.string;
}

TEST_F(DaemonTest, GarbageFramesAnsweredConnectionIsolated) {
  Start();
  ServiceClient hostile, polite;
  ASSERT_TRUE(Connect(hostile));
  ASSERT_TRUE(Connect(polite));

  JsonValue v;
  ASSERT_TRUE(hostile.send_raw("\xff\xfe\n"));
  ASSERT_TRUE(ReadJson(hostile, v));
  EXPECT_EQ(CodeOf(v), err::kBadUtf8);

  ASSERT_TRUE(hostile.send_raw("this is not json\n"));
  ASSERT_TRUE(ReadJson(hostile, v));
  EXPECT_EQ(CodeOf(v), err::kBadJson);

  ASSERT_TRUE(hostile.send_raw("{\"verb\":\"zap\"}\n"));
  ASSERT_TRUE(ReadJson(hostile, v));
  EXPECT_EQ(CodeOf(v), err::kUnknownVerb);

  ASSERT_TRUE(hostile.send_raw(std::string(kMaxFrameBytes + 100, 'a') + "\n"));
  ASSERT_TRUE(ReadJson(hostile, v));
  EXPECT_EQ(CodeOf(v), err::kFrameTooLong);

  // Four strikes is unlucky, not hostile: the connection still serves.
  ASSERT_TRUE(hostile.send_line("{\"verb\":\"health\"}"));
  ASSERT_TRUE(ReadJson(hostile, v));
  EXPECT_EQ(EventOf(v), "health");

  // An endless garbage flood exhausts the strike budget and gets the
  // connection torn down...
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(hostile.send_raw("garbage\n"));
  bool saw_eof = false;
  for (int i = 0; i < 40; ++i) {
    std::string line;
    if (!hostile.read_line(line, 5.0)) {
      saw_eof = true;
      break;
    }
  }
  EXPECT_TRUE(saw_eof) << "hostile connection was never torn down";

  // ...while the polite client on the same daemon never notices.
  ASSERT_TRUE(polite.send_line("{\"verb\":\"health\"}"));
  ASSERT_TRUE(ReadJson(polite, v));
  EXPECT_EQ(EventOf(v), "health");
  EXPECT_GE(daemon_->stats().protocol_errors.load(), 5);
  EXPECT_GE(daemon_->stats().connections_torn_down.load(), 1);
}

TEST_F(DaemonTest, DeadlineExpiresMidRun) {
  Start();
  ServiceClient c;
  ASSERT_TRUE(Connect(c));
  ASSERT_TRUE(c.send_line(std::string(kSlowGrid) + ",\"deadline\":0.3}"));
  JsonValue v;
  ASSERT_TRUE(ReadTerminal(c, v));
  EXPECT_EQ(EventOf(v), "error");
  EXPECT_EQ(CodeOf(v), err::kDeadlineExpired);
  EXPECT_EQ(daemon_->stats().deadline_expired.load(), 1);

  // The expiry cancelled that request's token only: the daemon (and its
  // shared pool) take the next request unpoisoned.
  ASSERT_TRUE(c.send_line(std::string(kFastGrid) + "}"));
  ASSERT_TRUE(ReadTerminal(c, v));
  EXPECT_EQ(EventOf(v), "done") << "code=" << CodeOf(v);
}

TEST_F(DaemonTest, FullQueueRejectsWithOverloaded) {
  Start([](DaemonOptions& o) {
    o.max_queue = 1;
    o.drain_timeout = 0.2;
  });
  ServiceClient c;
  ASSERT_TRUE(Connect(c));

  // First request: admitted, then picked up by the dispatcher.
  ASSERT_TRUE(c.send_line(std::string(kSlowGrid) + ",\"tag\":\"t1\"}"));
  JsonValue v;
  ASSERT_TRUE(ReadJson(c, v));
  ASSERT_EQ(EventOf(v), "accepted");

  // Wait until it is in flight (queue drained) so the next two requests
  // deterministically hit: queued, then bounced.
  ServiceClient probe;
  ASSERT_TRUE(Connect(probe));
  const auto deadline = steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    ASSERT_LT(steady_clock::now(), deadline) << "request never dispatched";
    ASSERT_TRUE(probe.send_line("{\"verb\":\"health\"}"));
    JsonValue h;
    ASSERT_TRUE(ReadJson(probe, h));
    if (h.find("queue_depth")->number == 0.0 &&
        h.find("in_flight")->number == 1.0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  ASSERT_TRUE(c.send_line(std::string(kSlowGrid) + ",\"tag\":\"t2\"}"));
  ASSERT_TRUE(ReadNonLog(c, v));
  EXPECT_EQ(EventOf(v), "accepted");

  ASSERT_TRUE(c.send_line(std::string(kSlowGrid) + ",\"tag\":\"t3\"}"));
  ASSERT_TRUE(ReadNonLog(c, v));
  EXPECT_EQ(EventOf(v), "error");
  EXPECT_EQ(CodeOf(v), err::kOverloaded);
  EXPECT_EQ(daemon_->stats().rejected_overloaded.load(), 1);

  // Drain: the in-flight request is cancelled after the (short) drain
  // timeout, the queued one is cancelled when popped, and both report it.
  daemon_->request_drain();
  int cancelled = 0;
  while (cancelled < 2) {
    ASSERT_TRUE(ReadTerminal(c, v)) << "missing cancelled response";
    EXPECT_EQ(EventOf(v), "error");
    EXPECT_EQ(CodeOf(v), err::kCancelled);
    ++cancelled;
  }
  Drain();
  EXPECT_EQ(rc_, 0);
  EXPECT_EQ(daemon_->stats().cancelled.load(), 2);
}

TEST_F(DaemonTest, ShutdownVerbDrainsAndServeReturnsZero) {
  Start();
  ServiceClient c;
  ASSERT_TRUE(Connect(c));
  ASSERT_TRUE(c.send_line("{\"verb\":\"shutdown\",\"tag\":\"bye\"}"));
  JsonValue v;
  ASSERT_TRUE(ReadJson(c, v));
  EXPECT_EQ(EventOf(v), "shutting_down");
  EXPECT_EQ(v.find("tag")->string, "bye");
  serve_thread_.join();
  EXPECT_EQ(rc_, 0);
}

TEST_F(DaemonTest, DisconnectCancelsInFlightOthersUnaffected) {
  Start();
  {
    ServiceClient doomed;
    ASSERT_TRUE(Connect(doomed));
    ASSERT_TRUE(doomed.send_line(std::string(kSlowGrid) + "}"));
    JsonValue v;
    ASSERT_TRUE(ReadJson(doomed, v));
    ASSERT_EQ(EventOf(v), "accepted");
    doomed.close();  // client vanishes mid-run
  }

  // The daemon notices the dead peer, cancels the request's token, and
  // accounts it as cancelled — while staying responsive to everyone else.
  ServiceClient c;
  ASSERT_TRUE(Connect(c));
  JsonValue v;
  ASSERT_TRUE(c.send_line("{\"verb\":\"health\"}"));
  ASSERT_TRUE(ReadJson(c, v, 5.0));
  EXPECT_EQ(EventOf(v), "health");

  const auto deadline = steady_clock::now() + std::chrono::seconds(30);
  while (daemon_->stats().cancelled.load() < 1) {
    ASSERT_LT(steady_clock::now(), deadline)
        << "disconnected client's request was never cancelled";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  ASSERT_TRUE(c.send_line(std::string(kFastGrid) + "}"));
  ASSERT_TRUE(ReadTerminal(c, v));
  EXPECT_EQ(EventOf(v), "done") << "code=" << CodeOf(v);
}

TEST_F(DaemonTest, ConcurrentRunsOfOneFigureShareTheOutDirSafely) {
  // Two clients ask for the same figure at once: both requests write
  // <out>/fig04.csv (and its sweep checkpoints) through atomic staging.
  // Each must finish ok, the CSV must equal a batch run's byte for byte,
  // and no staging file may be left behind.
  Start([](DaemonOptions& o) { o.cli.jobs = 2; });
  constexpr double kTimeout = 300.0;  // sanitizer builds are slow
  std::vector<JsonValue> done(2);
  std::vector<bool> got(2, false);
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i)
    clients.emplace_back([&, i] {
      ServiceClient c;
      if (!Connect(c)) return;
      if (!c.send_line("{\"verb\":\"run\",\"ids\":[\"fig04\"],\"tag\":\"c" +
                       std::to_string(i) + "\"}"))
        return;
      got[static_cast<std::size_t>(i)] =
          ReadTerminal(c, done[static_cast<std::size_t>(i)], kTimeout);
    });
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(got[i]) << "client " << i << " got no terminal event";
    ASSERT_EQ(EventOf(done[i]), "done") << "code=" << CodeOf(done[i]);
    ASSERT_NE(done[i].find("ok"), nullptr);
    EXPECT_TRUE(done[i].find("ok")->boolean) << "client " << i;
  }

  const TestDir batch;
  ThreadPool pool(2);
  ExperimentContext ctx;
  ctx.cli.out_dir = batch.str();
  ctx.cli.jobs = 2;
  ctx.pool = &pool;
  std::ostringstream log;
  ASSERT_EQ(run_experiment(*find_experiment("fig04"), ctx, log), 0);
  const std::string want = read_file(batch / "fig04.csv");
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(read_file(daemon_->options().cli.out_dir + "/fig04.csv"), want);

  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           daemon_->options().cli.out_dir))
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "staging file left behind: " << entry.path();
}

}  // namespace
}  // namespace afs::service
