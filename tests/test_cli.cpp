// End-to-end smoke tests of the `t1map` driver binary: spawns the real
// executable (path injected by CMake as T1MAP_CLI_PATH), parses its JSON
// report, and asserts the paper's headline claim — the T1 configuration
// beats the plain 4-phase baseline on JJ count.  The flag-scope pin calls
// the CLI library's parser directly.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/options.hpp"
#include "io/json.hpp"
#include "pin_digest.hpp"

namespace t1map {
namespace {

/// Runs a command line, captures stdout, returns the exit status.
int run_command(const std::string& command, std::string& stdout_text) {
  stdout_text.clear();
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    stdout_text.append(buffer, n);
  }
  return pclose(pipe);
}

const std::string kCli = T1MAP_CLI_PATH;

TEST(Cli, JsonReportT1BeatsBaselineOnJj) {
  std::string out;
  const int status =
      run_command(kCli + " --gen adder16 --config all --json 2>/dev/null", out);
  ASSERT_EQ(status, 0) << out;

  // The JSON must parse and carry all three Table-I configurations.
  const io::Json report = io::Json::parse(out);
  EXPECT_EQ(report.at("design").as_string(), "adder16");
  const io::Json& configs = report.at("configs");
  ASSERT_TRUE(configs.contains("baseline_1phi"));
  ASSERT_TRUE(configs.contains("baseline_4phi"));
  ASSERT_TRUE(configs.contains("t1"));

  const io::Json& t1 = configs.at("t1");
  const io::Json& base4 = configs.at("baseline_4phi");
  const io::Json& base1 = configs.at("baseline_1phi");

  // Every config was proven equivalent to the source AIG by SAT.
  EXPECT_EQ(t1.at("cec").as_string(), "equivalent");
  EXPECT_EQ(base4.at("cec").as_string(), "equivalent");
  EXPECT_EQ(base1.at("cec").as_string(), "equivalent");

  // The paper's headline claim: T1 substitution reduces JJ area versus the
  // same-phase baseline, and multiphase crushes the 1-phase DFF count.
  EXPECT_LT(t1.at("jj_total").as_number(), base4.at("jj_total").as_number());
  EXPECT_LT(base4.at("dffs").as_number(), base1.at("dffs").as_number());
  EXPECT_GT(t1.at("t1_used").as_number(), 0);
}

TEST(Cli, TextReportMentionsAllConfigs) {
  std::string out;
  const int status =
      run_command(kCli + " --gen adder8 --config all 2>/dev/null", out);
  ASSERT_EQ(status, 0) << out;
  EXPECT_NE(out.find("baseline_1phi"), std::string::npos);
  EXPECT_NE(out.find("baseline_4phi"), std::string::npos);
  EXPECT_NE(out.find("\nt1 "), std::string::npos);
  EXPECT_NE(out.find("equivalent"), std::string::npos);
}

TEST(Cli, BenchModeEmitsStageTimings) {
  std::string out;
  // One small circuit, two runs, JSON to stdout; CEC on so every stage of
  // the Table-I pipeline appears.
  const int status = run_command(
      kCli + " --bench --gen adder8 --bench-runs 2 --bench-out - 2>/dev/null",
      out);
  ASSERT_EQ(status, 0) << out;

  const io::Json bench = io::Json::parse(out);
  EXPECT_EQ(bench.at("bench").as_string(), "flow");
  // Repetitions run cold (the harness REQUIREs no memo reuse per run), so
  // run 2 measures the flow, not a reuse of run 1.
  EXPECT_EQ(bench.at("regime").as_string(), "cold");
  EXPECT_EQ(bench.at("config").as_string(), "t1");
  EXPECT_EQ(bench.at("runs").as_number(), 2);
  const io::Json& circuit = bench.at("circuits").at("adder8");
  EXPECT_GT(circuit.at("stats").at("jj_total").as_number(), 0);
  const io::Json& stages = circuit.at("stages");
  for (const char* stage : {"map", "t1_detect", "stage_assign", "dff_insert",
                            "self_check", "cec", "total"}) {
    ASSERT_TRUE(stages.contains(stage)) << stage;
    const io::Json& s = stages.at(stage);
    EXPECT_GE(s.at("mean_ms").as_number(), s.at("min_ms").as_number());
    EXPECT_GE(s.at("max_ms").as_number(), s.at("mean_ms").as_number());
  }
  // Stage times must be consistent: the total covers the flow plus CEC.
  EXPECT_GT(stages.at("total").at("mean_ms").as_number(), 0.0);
}

TEST(Cli, BenchSingleRunOmitsJitterFields) {
  std::string out;
  const int status = run_command(
      kCli + " --bench --gen adder8 --bench-runs 1 --no-cec --bench-out - "
             "2>/dev/null",
      out);
  ASSERT_EQ(status, 0) << out;
  const io::Json bench = io::Json::parse(out);
  EXPECT_EQ(bench.at("runs").as_number(), 1);
  const io::Json& total =
      bench.at("circuits").at("adder8").at("stages").at("total");
  // One sample has no spread: min_ms is the measurement, the mean/max
  // jitter fields would be degenerate duplicates and must be absent.
  EXPECT_GE(total.at("min_ms").as_number(), 0.0);
  EXPECT_FALSE(total.contains("mean_ms"));
  EXPECT_FALSE(total.contains("max_ms"));
}

TEST(Cli, RejectsInvalidThreadAndBenchCounts) {
  std::string out;
  // Zero/negative worker or repetition counts would hang the pool or emit
  // empty statistics; the parser must reject them with flag+value+cause.
  for (const char* bad :
       {" --gen adder8 --threads 0", " --gen adder8 --threads -2",
        " --bench --bench-runs 0", " --bench --bench-runs -1"}) {
    EXPECT_NE(run_command(kCli + bad + " 2>/dev/null", out), 0) << bad;
  }
  // Bench-harness flags outside bench mode are silent no-ops otherwise;
  // reject them too.
  EXPECT_NE(
      run_command(kCli + " --gen adder8 --bench-runs 5 2>/dev/null", out), 0);
  EXPECT_NE(run_command(kCli + " --bench --bench-set nope 2>/dev/null", out),
            0);
}

TEST(Cli, BadUsageFailsWithDiagnostic) {
  std::string out;
  // No input source: exit code 2 (usage error), nothing on stdout.
  int status = run_command(kCli + " --config all 2>/dev/null", out);
  EXPECT_NE(status, 0);
  // Unknown generator: exit code 1 (contract error).
  status = run_command(kCli + " --gen no_such_gen 2>/dev/null", out);
  EXPECT_NE(status, 0);
}

TEST(Cli, FuzzSmokeRunPasses) {
  std::string out;
  const int status = run_command(
      kCli + " --fuzz 3 --fuzz-seed 7 --fuzz-nodes 30"
             " --fuzz-dir /tmp/t1map_cli_fuzz 2>/dev/null",
      out);
  ASSERT_EQ(status, 0) << out;
  EXPECT_NE(out.find("fuzz: 3 iterations"), std::string::npos) << out;
  EXPECT_NE(out.find("0 failure(s)"), std::string::npos) << out;
  // Fuzz mode is exclusive with report/bench/serve inputs.
  EXPECT_NE(run_command(kCli + " --fuzz 1 --gen adder8 2>/dev/null", out), 0);
  EXPECT_NE(run_command(kCli + " --fuzz-seed 7 2>/dev/null", out), 0);
}

TEST(Cli, AigerExportImportRoundTrip) {
  const std::string aag = "/tmp/t1map_cli_rt.aag";
  const std::string aig = "/tmp/t1map_cli_rt.aig";
  std::string out;
  // Export both formats from a generator...
  ASSERT_EQ(run_command(kCli + " --gen adder8 --export-aiger " + aag +
                            " --json 2>/dev/null",
                        out),
            0);
  ASSERT_EQ(run_command(kCli + " --gen adder8 --export-aiger " + aig +
                            " --json 2>/dev/null",
                        out),
            0);
  // ...then map each back in; the flow must prove CEC-equivalence and land
  // on the generator run's Table-I numbers.
  const io::Json direct = io::Json::parse(out);
  for (const std::string& path : {aag, aig}) {
    ASSERT_EQ(run_command(kCli + " --input " + path + " --json 2>/dev/null",
                          out),
              0)
        << path;
    const io::Json report = io::Json::parse(out);
    const io::Json& t1 = report.at("configs").at("t1");
    EXPECT_EQ(t1.at("cec").as_string(), "equivalent") << path;
    EXPECT_EQ(t1.at("jj_total").as_number(),
              direct.at("configs").at("t1").at("jj_total").as_number())
        << path;
  }
  std::remove(aag.c_str());
  std::remove(aig.c_str());
}

/// `report` without each configuration's wall-clock `seconds`: the part of
/// the JSON report that must not depend on scheduling.
io::Json without_seconds(const io::Json& report) {
  io::Json out = io::Json::object();
  for (const auto& [key, value] : report.members()) {
    if (key != "configs") {
      out.set(key, value);
      continue;
    }
    io::Json configs = io::Json::object();
    for (const auto& [name, config] : value.members()) {
      io::Json c = io::Json::object();
      for (const auto& [field, v] : config.members()) {
        if (field != "seconds") c.set(field, v);
      }
      configs.set(name, std::move(c));
    }
    out.set("configs", std::move(configs));
  }
  return out;
}

TEST(Cli, ThreadCountDoesNotChangeTheReport) {
  std::string serial;
  std::string threaded;
  ASSERT_EQ(run_command(kCli + " --gen mul8 --json --threads 1 2>/dev/null",
                        serial),
            0);
  ASSERT_EQ(run_command(kCli + " --gen mul8 --json --threads 3 2>/dev/null",
                        threaded),
            0);
  EXPECT_EQ(without_seconds(io::Json::parse(threaded)).dump(),
            without_seconds(io::Json::parse(serial)).dump());
}

TEST(Cli, InputReadsBlifFromFileAndStdin) {
  // Export a mapped netlist, then map it again as a BLIF design, from the
  // file and from stdin: both runs see the same circuit.
  const std::string blif = "/tmp/t1map_cli_rt.blif";
  std::string out;
  ASSERT_EQ(run_command(kCli + " --gen adder16 --config t1 --out-blif " +
                            blif + " 2>/dev/null",
                        out),
            0);
  std::string from_file;
  std::string from_stdin;
  ASSERT_EQ(run_command(kCli + " --input " + blif +
                            " --config nphi --json 2>/dev/null",
                        from_file),
            0)
      << from_file;
  ASSERT_EQ(run_command(kCli + " --input - --config nphi --json < " + blif +
                            " 2>/dev/null",
                        from_stdin),
            0)
      << from_stdin;
  const io::Json file_report = without_seconds(io::Json::parse(from_file));
  const io::Json stdin_report = without_seconds(io::Json::parse(from_stdin));
  EXPECT_EQ(file_report.at("source").as_string(), "blif:" + blif);
  EXPECT_EQ(stdin_report.at("source").as_string(), "blif:-");
  EXPECT_EQ(file_report.at("design").as_string(),
            stdin_report.at("design").as_string());
  const io::Json& nphi = file_report.at("configs").at("baseline_4phi");
  EXPECT_EQ(nphi.at("cec").as_string(), "equivalent");
  EXPECT_EQ(file_report.at("configs").dump(),
            stdin_report.at("configs").dump());
  std::remove(blif.c_str());
}

TEST(Cli, IncrementalFromTheSameDesignSplicesEveryCone) {
  const std::string aag = "/tmp/t1map_cli_inc_mul8.aag";
  std::string out;
  ASSERT_EQ(run_command(kCli + " --gen mul8 --export-aiger " + aag +
                            " --json 2>/dev/null",
                        out),
            0);
  std::string cold_text;
  std::string warm_text;
  ASSERT_EQ(run_command(kCli + " --input " + aag + " --json 2>/dev/null",
                        cold_text),
            0);
  ASSERT_EQ(run_command(kCli + " --input " + aag + " --incremental-from " +
                            aag + " --json 2>/dev/null",
                        warm_text),
            0);
  const io::Json cold = io::Json::parse(cold_text);
  const io::Json warm = io::Json::parse(warm_text);
  EXPECT_EQ(warm.at("incremental_from").as_string(), aag);

  // Each configuration is primed with the very design it then maps, so
  // every mapper cone and the whole stage assignment splice, and the T1
  // detector reuses its whole result.
  const io::Json& configs = warm.at("configs");
  ASSERT_EQ(configs.members().size(), 3u);
  for (const auto& [key, config] : configs.members()) {
    const io::Json& reuse = config.at("reuse");
    EXPECT_EQ(reuse.at("map_cones_total").as_number(), 584) << key;
    EXPECT_EQ(reuse.at("map_cones_reused").as_number(), 584) << key;
    EXPECT_TRUE(reuse.at("stage_spliced").as_bool()) << key;
    EXPECT_EQ(reuse.at("t1_exact").as_bool(), key == "t1") << key;
    // Splices are bit-identical to a cold run.
    const io::Json& ref = cold.at("configs").at(key);
    for (const char* field :
         {"phases", "use_t1", "jj_total", "dffs", "depth_cycles",
          "num_stages", "logic_cells", "splitters", "t1_found", "t1_used",
          "cec"}) {
      EXPECT_EQ(config.at(field).dump(), ref.at(field).dump())
          << key << '.' << field;
    }
  }
  std::remove(aag.c_str());
}

TEST(Cli, IncrementalFromAnUnrelatedDesignReusesNoCone) {
  const std::string aag = "/tmp/t1map_cli_inc_adder16.aag";
  std::string out;
  ASSERT_EQ(run_command(kCli + " --gen adder16 --export-aiger " + aag +
                            " --json 2>/dev/null",
                        out),
            0);
  ASSERT_EQ(run_command(kCli + " --gen mul8 --incremental-from " + aag +
                            " --json 2>/dev/null",
                        out),
            0);
  const io::Json report = io::Json::parse(out);
  for (const auto& [key, config] : report.at("configs").members()) {
    const io::Json& reuse = config.at("reuse");
    EXPECT_EQ(reuse.at("map_cones_total").as_number(), 584) << key;
    EXPECT_EQ(reuse.at("map_cones_reused").as_number(), 0) << key;
    EXPECT_EQ(reuse.at("t1_cones_reused").as_number(), 0) << key;
    EXPECT_FALSE(reuse.at("t1_exact").as_bool()) << key;
    EXPECT_FALSE(reuse.at("stage_spliced").as_bool()) << key;
  }
  std::remove(aag.c_str());
}

// A primed run maps the configurations one after another, each on worker 0
// of its own engine, so its progress lines say so whatever --threads asks.
TEST(Cli, IncrementalFromRunsTheConfigurationsOneAfterAnother) {
  const std::string aag = "/tmp/t1map_cli_inc_seq_adder16.aag";
  std::string out;
  ASSERT_EQ(run_command(kCli + " --gen adder16 --export-aiger " + aag +
                            " --json 2>/dev/null",
                        out),
            0);
  std::string batch_err;
  ASSERT_EQ(run_command(kCli + " --gen adder16 --threads 3 --no-cec " +
                            "2>&1 >/dev/null",
                        batch_err),
            0);
  EXPECT_NE(batch_err.find("running 3 configurations on 3 threads"),
            std::string::npos)
      << batch_err;

  std::string primed_err;
  ASSERT_EQ(run_command(kCli + " --gen adder16 --threads 3 --no-cec " +
                            "--incremental-from " + aag + " 2>&1 >/dev/null",
                        primed_err),
            0);
  EXPECT_EQ(primed_err.find("configurations on"), std::string::npos)
      << primed_err;
  for (const char* key : {"baseline_1phi", "baseline_4phi", "t1"}) {
    EXPECT_NE(primed_err.find(std::string("t1map: running ") + key + " ..."),
              std::string::npos)
        << primed_err;
  }
  std::remove(aag.c_str());
}

// A disk tier whose writes fail rejects the stores, and the server keeps
// answering from memory.  The file-size limit makes the writes fail: one
// block holds the files' headers but no record, and with SIGXFSZ ignored
// the write returns EFBIG instead of killing the process.
TEST(Cli, ServeSurvivesFailingDiskWrites) {
  const std::string dir = "/tmp/t1map_cli_xfsz";
  const std::string requests = "/tmp/t1map_cli_xfsz.jsonl";
  std::filesystem::remove_all(dir);
  {
    std::ofstream script(requests);
    const std::string job =
        "\"gen\":\"adder8\",\"cec\":false,\"verify_rounds\":0";
    script << "{\"id\":1," << job << "}\n"
           << "{\"id\":2," << job << ",\"config\":\"nphi\"}\n"
           << "{\"id\":3," << job << "}\n"
           << "{\"id\":4,\"cmd\":\"stats\"}\n";
  }
  std::string out;
  ASSERT_EQ(run_command("(trap '' XFSZ; ulimit -f 1; " + kCli +
                            " --serve --cache-dir " + dir + ") < " +
                            requests + " 2>/dev/null",
                        out),
            0)
      << out;
  std::vector<io::Json> responses;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    responses.push_back(io::Json::parse(line));
  }
  ASSERT_EQ(responses.size(), 4u) << out;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(responses[i].at("ok").as_bool()) << i;
  }
  EXPECT_TRUE(responses[2].at("cached").as_bool());  // from memory
  const io::Json& tiers = responses[3].at("serve").at("cache").at("tiers");
  ASSERT_EQ(tiers.size(), 2u);
  EXPECT_EQ(tiers.at(1).at("insertions").as_number(), 0);
  EXPECT_EQ(tiers.at(1).at("evictions").as_number(), 2);  // both stores
  EXPECT_EQ(tiers.at(1).at("entries").as_number(), 0);

  // The log stayed at its last committed entry: a second server on the
  // directory recovers nothing.
  ASSERT_EQ(run_command("echo '{\"cmd\":\"stats\"}' | " + kCli +
                            " --serve --cache-dir " + dir + " 2>/dev/null",
                        out),
            0)
      << out;
  const io::Json reopened = io::Json::parse(out);
  const io::Json& disk = reopened.at("serve").at("cache").at("tiers").at(1);
  EXPECT_EQ(disk.at("recovered_entries").as_number(), 0);
  std::filesystem::remove_all(dir);
  std::remove(requests.c_str());
}

// A response that cannot be written is not counted as served: the session
// ends at the first batch whose flush fails, the summary names the
// undelivered responses, and stream mode exits 1.  The same file-size
// limit, now on stdout, fails the first batch: four responses of some 250
// bytes each.
TEST(Cli, ServeFailsWhenResponsesCannotBeWritten) {
  const std::string requests = "/tmp/t1map_cli_stdout_xfsz.jsonl";
  const std::string responses = "/tmp/t1map_cli_stdout_xfsz.out";
  {
    std::ofstream script(requests);
    for (int id = 1; id <= 16; ++id) {
      script << "{\"id\":" << id
             << ",\"gen\":\"adder8\",\"cec\":false,\"verify_rounds\":0}\n";
    }
  }
  std::string err;
  const int status = run_command("(trap '' XFSZ; ulimit -f 1; " + kCli +
                                     " --serve --serve-batch 4 < " +
                                     requests + " > " + responses + ") 2>&1",
                                 err);
  ASSERT_TRUE(WIFEXITED(status)) << err;
  EXPECT_EQ(WEXITSTATUS(status), 1) << err;
  EXPECT_NE(err.find("serve done: 4 requests in 1 batches (0 errors), "
                     "4 responses undelivered"),
            std::string::npos)
      << err;
  std::remove(requests.c_str());
  std::remove(responses.c_str());
}

/// `s` split at spaces ("" gives no words).
std::vector<std::string> words(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  for (std::string w; is >> w;) out.push_back(w);
  return out;
}

/// Whether `parse_options` accepts `args` (a UsageError rejects them).
bool parses(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"t1map"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  try {
    (void)cli::parse_options(static_cast<int>(argv.size()), argv.data());
    return true;
  } catch (const cli::UsageError&) {
    return false;
  }
}

// Which flags each run mode reads, decided by the parser alone: every base
// command line followed by every ordered pair of extras (the empty extra
// gives the one-extra lines).  A row folds one base's 42 x 42 verdicts and
// counts the accepted lines; a failure prints the row as it is now.
TEST(Cli, FlagScopesArePinned) {
  struct PinnedRow {
    const char* base;
    int accepted;
    std::uint64_t verdicts;
  };
  // clang-format off
  static const PinnedRow kRows[] = {
      {"",                                   388, 0x2b1706e6a5d554e5ull},
      {"--gen adder8",                       602, 0xea0fe6c2b38e1a85ull},
      {"--input x.aag",                      579, 0x5b241327d312c4c4ull},
      {"--gen adder8 --input x.aag",         243, 0xc0d495fb1879b3c4ull},
      {"--bench --gen adder8",               395, 0xf6a46d92e2d8e3c4ull},
      {"--bench",                            443, 0xfbebe02bfad37724ull},
      {"--serve --serve-listen unix:x.sock", 475, 0x597551a2c25f64a4ull},
      {"--serve",                            449, 0x09a2275f0baee884ull},
      {"--fuzz 3",                           371, 0xf3cd0aaf2a550e44ull},
      {"--bench --serve",                    243, 0xc0d495fb1879b3c4ull},
      {"--bench --fuzz 3",                   243, 0xc0d495fb1879b3c4ull},
      {"--serve --fuzz 3",                   243, 0xc0d495fb1879b3c4ull},
  };
  // clang-format on
  static const char* const kExtras[] = {
      "",
      "--gen adder8",
      "--input x.aag",
      "--config all",
      "--config 1phi",
      "--config nphi",
      "--config t1",
      "--phases 1",
      "--phases 2",
      "--phases 3",
      "--phases 6",
      "--verify-rounds 0",
      "--no-cec",
      "--threads 2",
      "--bench",
      "--bench-runs 2",
      "--bench-set table1",
      "--bench-set nearduplicate",
      "--bench-out -",
      "--serve",
      "--cache-mb 8",
      "--serve-batch 4",
      "--serve-listen unix:x.sock",
      "--cache-dir x.cache",
      "--drain-timeout 10",
      "--serve-idle 0",
      "--serve-idle 50",
      "--fuzz 3",
      "--fuzz-seed 7",
      "--fuzz-dir x.repros",
      "--fuzz-nodes 20",
      "--fuzz-mutate 1",
      "--incremental-from x.aag",
      "--json",
      "--paper",
      "--out-blif x.blif",
      "--out-dot x.dot",
      "--export-aiger x.aig",
      "--export-verilog x.v",
      "--list-gens",
      "--help",
      "-h",
  };
  ASSERT_EQ(std::size(kExtras), 42u);

  for (const PinnedRow& row : kRows) {
    int accepted = 0;
    PinDigest verdicts;
    for (const char* first : kExtras) {
      for (const char* second : kExtras) {
        std::vector<std::string> args = words(row.base);
        for (const char* extra : {first, second}) {
          for (std::string& w : words(extra)) args.push_back(std::move(w));
        }
        const bool ok = parses(args);
        accepted += ok;
        verdicts.add(ok);
      }
    }
    char now[128];
    std::snprintf(now, sizeof now, "{\"%s\", %d, 0x%016llxull},", row.base,
                  accepted, static_cast<unsigned long long>(verdicts.h));
    EXPECT_EQ(accepted, row.accepted) << "now: " << now;
    EXPECT_EQ(verdicts.h, row.verdicts) << "now: " << now;
  }
  // The fuzzer's oracle is SAT CEC, so it cannot run without it.
  const char* const fuzz_no_cec[] = {"t1map", "--fuzz", "3", "--no-cec"};
  EXPECT_THROW(cli::parse_options(4, fuzz_no_cec), cli::UsageError);
}

TEST(Cli, ListGensAndHelp) {
  std::string out;
  ASSERT_EQ(run_command(kCli + " --list-gens", out), 0);
  EXPECT_NE(out.find("adder<N>"), std::string::npos);
  ASSERT_EQ(run_command(kCli + " --help", out), 0);
  EXPECT_NE(out.find("--config"), std::string::npos);
}

}  // namespace
}  // namespace t1map
