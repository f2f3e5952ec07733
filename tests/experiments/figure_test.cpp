#include "experiments/figure.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "experiments/expectations.hpp"
#include "kernels/synthetic.hpp"
#include "machines/machines.hpp"
#include "support/test_dir.hpp"

namespace afs {
namespace {

/// Each test writes its CSV into its own TestDir: a shared
/// bench_results/figtest.csv raced under `ctest -j`.
FigureSpec tiny_spec(const TestDir& dir) {
  FigureSpec spec;
  spec.out_dir = dir.str();
  spec.id = "figtest";
  spec.title = "tiny sweep";
  spec.machine = iris();
  spec.program = balanced_program(256, 100.0);  // heavy enough to scale
  spec.procs = {1, 2, 4};
  spec.schedulers = {entry("GSS"), entry("STATIC")};
  return spec;
}

TEST(Figure, RunsSweepAndRecordsAllCells) {
  const TestDir dir;
  std::ostringstream out;
  const FigureResult r = run_figure(tiny_spec(dir), out);
  EXPECT_EQ(r.results.size(), 2u);
  for (const auto& label : {"GSS", "STATIC"})
    for (int p : {1, 2, 4}) EXPECT_GT(r.time(label, p), 0.0) << label << p;
}

TEST(Figure, TimesDecreaseWithProcessors) {
  const TestDir dir;
  std::ostringstream out;
  const FigureResult r = run_figure(tiny_spec(dir), out);
  EXPECT_LT(r.time("STATIC", 4), r.time("STATIC", 1));
}

TEST(Figure, WritesCsv) {
  const TestDir dir;
  std::ostringstream out;
  (void)run_figure(tiny_spec(dir), out);
  EXPECT_TRUE(std::filesystem::exists(dir / "figtest.csv"));
}

TEST(Figure, CompletionTableHasRowPerP) {
  const TestDir dir;
  std::ostringstream out;
  const FigureResult r = run_figure(tiny_spec(dir), out);
  EXPECT_EQ(r.completion_table().row_count(), 3u);
}

TEST(Figure, AdvantageRatio) {
  const TestDir dir;
  std::ostringstream out;
  const FigureResult r = run_figure(tiny_spec(dir), out);
  const double adv = r.advantage("STATIC", "GSS", 4);
  EXPECT_GT(adv, 0.0);
  EXPECT_DOUBLE_EQ(adv, r.time("GSS", 4) / r.time("STATIC", 4));
}

TEST(Figure, UnknownLabelThrows) {
  const TestDir dir;
  std::ostringstream out;
  const FigureResult r = run_figure(tiny_spec(dir), out);
  EXPECT_THROW(r.time("NOPE", 1), CheckFailure);
  EXPECT_THROW(r.time("GSS", 3), CheckFailure);
}

TEST(Expectations, BeatsAndComparable) {
  const TestDir dir;
  std::ostringstream out;
  const FigureResult r = run_figure(tiny_spec(dir), out);
  EXPECT_TRUE(beats(r, "STATIC", "GSS", 4, 1.0));
  EXPECT_TRUE(comparable(r, "STATIC", "STATIC", 2));
}

TEST(Expectations, EffectiveProcessors) {
  const TestDir dir;
  std::ostringstream out;
  const FigureResult r = run_figure(tiny_spec(dir), out);
  // A balanced loop on few processors scales: best P should be the max.
  EXPECT_EQ(effective_processors(r, "STATIC"), 4);
}

TEST(Expectations, ReportShapeFormats) {
  std::ostringstream out;
  EXPECT_TRUE(report_shape(out, true, "works"));
  EXPECT_FALSE(report_shape(out, false, "broken"));
  EXPECT_NE(out.str().find("shape OK"), std::string::npos);
  EXPECT_NE(out.str().find("shape MISMATCH"), std::string::npos);
}

}  // namespace
}  // namespace afs
