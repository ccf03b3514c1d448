// Strict flag parsing: the cli::parse_* whitelist contract, plus a
// table-driven rejection sweep over EVERY numeric wlmctl flag. The latter
// runs the real binary: the regression this guards was not in any parser
// but in a command forgetting to check one flag's parse result, so only an
// end-to-end exit-code check holds the line as flags accrete.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/wait.h>
#include <utility>

#include "cli/parse.hpp"

namespace wlm {
namespace {

TEST(CliParse, AcceptsPlainIntegers) {
  EXPECT_EQ(cli::parse_int("0"), 0);
  EXPECT_EQ(cli::parse_int("42"), 42);
  EXPECT_EQ(cli::parse_int("-7"), -7);
  EXPECT_EQ(cli::parse_int("+13"), 13);
  EXPECT_EQ(cli::parse_int("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(cli::parse_int("-9223372036854775808"), INT64_MIN);
}

TEST(CliParse, RejectsNonIntegers) {
  for (const char* bad :
       {"", "+", "-", " 1", "1 ", "1.5", "1e3", "0x10", "abc", "12abc", "--3",
        "nan", "inf", "9223372036854775808", "-9223372036854775809",
        "99999999999999999999999999"}) {
    EXPECT_FALSE(cli::parse_int(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(CliParse, HonorsCallerRange) {
  EXPECT_TRUE(cli::parse_int("100", 0, 100).has_value());
  EXPECT_FALSE(cli::parse_int("101", 0, 100).has_value());
  EXPECT_FALSE(cli::parse_int("-1", 0, 100).has_value());
}

TEST(CliParse, AcceptsPlainDecimals) {
  EXPECT_EQ(cli::parse_double("0"), 0.0);
  EXPECT_EQ(cli::parse_double("0.5"), 0.5);
  EXPECT_EQ(cli::parse_double("-2.25"), -2.25);
  EXPECT_EQ(cli::parse_double("+3."), 3.0);
  EXPECT_EQ(cli::parse_double(".5"), 0.5);
  EXPECT_EQ(cli::parse_double("1e3"), 1000.0);
  EXPECT_EQ(cli::parse_double("2.5E-2"), 0.025);
}

TEST(CliParse, RejectsEveryNonFiniteSpelling) {
  for (const char* bad : {"nan", "NaN", "NAN", "nan(123)", "inf", "INF",
                          "Infinity", "-inf", "+inf", "-nan"}) {
    EXPECT_FALSE(cli::parse_double(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(CliParse, RejectsJunkHexAndOverflow) {
  for (const char* bad : {"", ".", "+", "-", "e3", "1e", "1e+", " 1.0", "1.0 ",
                          "1.0x", "0x1p4", "0x10", "1.2.3", "1e999", "-1e999"}) {
    EXPECT_FALSE(cli::parse_double(bad).has_value()) << "'" << bad << "'";
  }
  // Underflow-to-zero is legal input, not an error.
  EXPECT_EQ(cli::parse_double("1e-999"), 0.0);
}

#ifdef WLMCTL_BIN

/// Runs wlmctl with one poisoned flag; returns its exit code.
int wlmctl_exit(const std::string& cmdline) {
  const std::string full = std::string(WLMCTL_BIN) + " " + cmdline +
                           " >/dev/null 2>/dev/null";
  const int status = std::system(full.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(WlmctlFlagValidation, EveryNumericFlagRejectsHostileValues) {
  // One row per numeric flag, paired with the cheapest subcommand that
  // reads it. A hostile value must exit 2 (usage error) — never run the
  // scenario with a silently substituted fallback. This is the sweep that
  // caught the post-PR-7 flags (--mem-ceiling-mb, --roam-prob,
  // --mobility-speed, ...) accepting "nan"/"inf" through strtod.
  struct Row {
    const char* command;  // subcommand plus any required scaffolding
    const char* flag;
  };
  const Row rows[] = {
      {"simulate", "--networks"},
      {"simulate", "--seed"},
      {"simulate", "--jobs"},
      {"simulate", "--flap"},
      {"simulate", "--mem-ceiling-mb"},
      {"simulate", "--max-shard-retries"},
      {"simulate", "--shard-deadline"},
      {"simulate --checkpoint-out /tmp/x.wlmckpt", "--checkpoint-every"},
      {"simulate", "--roam-prob"},
      {"simulate", "--mobility-speed"},
      {"simulate", "--mobility-steps"},
      {"simulate", "--mesh-fraction"},
      {"simulate", "--mesh-max-hops"},
      {"simulate", "--mesh-floor-dbm"},
      {"simulate", "--mesh-drift-db"},
      {"report table2", "--networks"},
      {"report table2", "--seed"},
      {"report table2", "--jobs"},
      {"report table2", "--mem-ceiling-mb"},
      {"report meshdelivery", "--mesh-fraction"},
      {"health", "--networks"},
      {"health", "--flap"},
      {"stats", "--seed"},
      {"pcap /tmp/x.pcap", "--flows"},
      {"pcap /tmp/x.pcap", "--seed"},
      {"spectrum", "--seed"},
      {"export /tmp", "--networks"},
  };
  const char* const poisons[] = {"nan",   "iNf",  "infinity", "1e999", "abc",
                                 "12abc", "0x10", "",         "1.2.3"};
  for (const Row& row : rows) {
    for (const char* poison : poisons) {
      std::string cmd = std::string(row.command) + " " + row.flag + " '" +
                        poison + "'";
      // Keep accidental acceptance cheap — unless --networks is the flag
      // under test (duplicate options overwrite, which would heal it) or
      // the command has no fleet (pcap and spectrum reject --networks).
      const std::string command = row.command;
      const bool fleet = command.rfind("pcap", 0) != 0 && command.rfind("spectrum", 0) != 0;
      if (fleet && std::string(row.flag) != "--networks") cmd += " --networks 2";
      EXPECT_EQ(wlmctl_exit(cmd), 2) << "wlmctl " << cmd;
    }
  }
}

TEST(WlmctlFlagValidation, OutOfRangeMeshKnobsAreUsageErrors) {
  struct Row {
    const char* flag;
    const char* value;
  };
  const Row rows[] = {
      {"--mesh-fraction", "-0.1"}, {"--mesh-fraction", "0.96"},
      {"--mesh-max-hops", "0"},    {"--mesh-max-hops", "17"},
      {"--mesh-floor-dbm", "-101"}, {"--mesh-floor-dbm", "-39"},
      {"--mesh-drift-db", "-1"},   {"--mesh-drift-db", "10.5"},
  };
  for (const Row& row : rows) {
    const std::string cmd =
        std::string("simulate --networks 2 ") + row.flag + " " + row.value;
    EXPECT_EQ(wlmctl_exit(cmd), 2) << "wlmctl " << cmd;
  }
}

/// Runs wlmctl and returns its exit code and stderr (stdout discarded).
std::pair<int, std::string> wlmctl_stderr(const std::string& cmdline) {
  const std::string full = std::string(WLMCTL_BIN) + " " + cmdline + " 2>&1 >/dev/null";
  std::string err;
  int code = -1;
  if (std::FILE* pipe = popen(full.c_str(), "r")) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) err.append(buf, n);
    const int status = pclose(pipe);
    if (status != -1 && WIFEXITED(status)) code = WEXITSTATUS(status);
  }
  return {code, err};
}

TEST(WlmctlFlagValidation, UnknownAndRetiredFlagsAreUsageErrors) {
  // Each command accepts only the flags it reads. A typo, a retired engine
  // knob, or a flag of another command must exit 2 naming the flag — never
  // run the default scenario as if the flag were not there.
  struct Row {
    const char* cmdline;
    const char* flag;
  };
  const Row rows[] = {
      {"simulate --netwroks 20", "--netwroks"},
      {"simulate --networks 2 --per-mode table", "--per-mode"},
      {"simulate --networks 2 --classifier indexed", "--classifier"},
      {"report table3 --networks 2 --classifier indexed", "--classifier"},
      {"report table3 --networks 2 --per-mode table", "--per-mode"},
      {"export /tmp --networks 2 --per-mode reference", "--per-mode"},
      {"report table3 --networks 2 --faults flap=1", "--faults"},
      {"health --networks 2 --checkpoint-out /tmp/x.wlmckpt", "--checkpoint-out"},
      {"stats --networks 2 --halt-after-phase mr16", "--halt-after-phase"},
      {"export /tmp --networks 2 --mobility on", "--mobility"},
      {"pcap /tmp/x.pcap --networks 2", "--networks"},
      {"spectrum --jobs 2", "--jobs"},
  };
  for (const Row& row : rows) {
    const auto [code, err] = wlmctl_stderr(row.cmdline);
    EXPECT_EQ(code, 2) << "wlmctl " << row.cmdline;
    EXPECT_NE(err.find(row.flag), std::string::npos)
        << "wlmctl " << row.cmdline << " did not name " << row.flag << ": " << err;
  }
  // A flag with no value is a usage error too, not a positional argument.
  EXPECT_EQ(wlmctl_exit("simulate --networks"), 2);
}

/// Runs wlmctl and returns its stdout (stderr discarded).
std::string wlmctl_stdout(const std::string& cmdline) {
  const std::string full = std::string(WLMCTL_BIN) + " " + cmdline + " 2>/dev/null";
  std::string out;
  if (std::FILE* pipe = popen(full.c_str(), "r")) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
    pclose(pipe);
  }
  return out;
}

TEST(WlmctlFlapFlag, IsShorthandForFaultsFlapAndYieldsToIt) {
  // --flap F runs exactly the --faults flap=F scenario.
  const std::string via_flag = wlmctl_stdout("simulate --networks 3 --flap 0.8");
  ASSERT_NE(via_flag.find("loss ledger"), std::string::npos) << via_flag;
  EXPECT_EQ(via_flag, wlmctl_stdout("simulate --networks 3 --faults flap=0.8"));
  EXPECT_NE(via_flag, wlmctl_stdout("simulate --networks 3"));
  // A flap named in --faults wins over --flap. A 2-frame device queue makes
  // the flap fraction visible on stdout (flapped tunnels shed backlog).
  const std::string mixed =
      wlmctl_stdout("simulate --networks 3 --faults flap=0.2,queue=2 --flap 0.8");
  EXPECT_EQ(mixed, wlmctl_stdout("simulate --networks 3 --faults flap=0.2,queue=2"));
  EXPECT_NE(mixed, wlmctl_stdout("simulate --networks 3 --faults flap=0.8,queue=2"));
  // `health` still adds its default mixed-fault week when --flap is the
  // only fault named, exactly as if the flap were part of that scenario.
  EXPECT_EQ(wlmctl_stdout("health --networks 3 --flap 0.5"),
            wlmctl_stdout("health --networks 3 --faults "
                          "outage_rate=2,outage_hours=18,reboot_rate=1,corrupt=0.01,flap=0.5"));
}

#endif  // WLMCTL_BIN

}  // namespace
}  // namespace wlm
