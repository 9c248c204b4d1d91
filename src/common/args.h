#ifndef MLQ_COMMON_ARGS_H_
#define MLQ_COMMON_ARGS_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace mlq {

// Minimal command-line handling for the bench binaries: finds "--name=value"
// or the two-token form "--name value" in argv and returns the value, or
// `default_value` when absent. Keeps the harness dependency-free; the
// benches only need one or two switches (e.g. --csv=out.csv).
inline std::string ArgValue(int argc, char** argv, std::string_view name,
                            std::string_view default_value = "") {
  const std::string flag = "--" + std::string(name);
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, prefix.size()) == prefix) {
      return std::string(arg.substr(prefix.size()));
    }
    // Two-token form: the value must exist and not itself be a flag.
    if (arg == flag && i + 1 < argc && argv[i + 1][0] != '-') {
      return argv[i + 1];
    }
  }
  return std::string(default_value);
}

// True when the bare flag "--name" (no value) is present.
inline bool HasFlag(int argc, char** argv, std::string_view name) {
  const std::string flag = "--" + std::string(name);
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

// Checks argv[first..] against the flags a binary reads, so a misspelt or
// retired flag fails loudly instead of silently running on its default.
// Each known flag may appear as "--name=value", as the two-token
// "--name value" (with ArgValue's rule for what counts as a value) or bare
// as "--name"; any other argument is unknown. Prints the first unknown
// argument to stderr and returns true when there is one.
inline bool ReportUnknownArgs(int argc, char** argv,
                              const std::vector<std::string_view>& known,
                              int first = 1) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string_view name =
        arg.substr(0, 2) == "--" ? arg.substr(2, eq == arg.npos ? eq : eq - 2)
                                 : std::string_view();
    if (name.empty() ||
        std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return true;
    }
    // Two-token form: the next argument is this flag's value.
    if (eq == arg.npos && i + 1 < argc && argv[i + 1][0] != '-') ++i;
  }
  return false;
}

}  // namespace mlq

#endif  // MLQ_COMMON_ARGS_H_
