// perfbench_trace: the per-layer measurements that replay a controlled
// input (see ../README.md).
//
//   perfbench_trace micro --script=FILE --worker-exe=AFS_SWEEP
//
// prints one JSON object. The workloads themselves are traced by
// afs_sweep_traced, the shipped tools/afs_sweep.cpp linked with the
// layer hooks.
#include <iostream>
#include <string>
#include <vector>

#include "layers.hpp"

namespace {

std::string flag(const std::vector<std::string>& args, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (const std::string& a : args)
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] != "micro") {
    std::cerr << "usage: perfbench_trace micro --script=FILE "
                 "--worker-exe=AFS_SWEEP\n";
    return 2;
  }
  try {
    std::cout << perfbench::micro_metrics_json(flag(args, "script"),
                                               flag(args, "worker-exe"))
              << std::endl;
  } catch (const std::exception& ex) {
    std::cerr << "perfbench_trace micro: " << ex.what() << "\n";
    return 1;
  }
  return 0;
}
