// stsyn — the command-line frontend.
//
// All real work lives in src/cli (argument parsing, the run driver, the
// stats document) and src/serve (the daemon); this file only owns what a
// terminal session needs that a daemon does not: reading protocol files,
// writing the --output/--stats-json/--trace artifacts, and process exit
// codes.
//
//   stsyn <file.stsyn> [options]   synthesize / --weak / --verify
//   stsyn lint <file.stsyn> [...]  static analysis (text or SARIF)
//   stsyn serve [options]          synthesis-as-a-service daemon
//
// Run with no arguments for the full option list.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace {

/// Writes the stats document and Chrome trace on every exit path once a
/// run was attempted, like the old in-main report destructor did: a
/// failed or timed-out run still produces its artifacts.
struct ArtifactWriter {
  const stsyn::cli::Options& opt;
  const stsyn::cli::Report& report;

  ~ArtifactWriter() {
    if (!opt.statsPath.empty()) writeStats();
    if (!opt.tracePath.empty()) writeTrace();
  }

  void writeStats() const {
    std::ofstream out(opt.statsPath);
    if (!out) {
      std::fprintf(stderr, "stsyn: cannot write %s\n", opt.statsPath.c_str());
      return;
    }
    out << report.renderStatsJson() << '\n';
    if (out.good()) {
      std::printf("wrote stats to %s\n", opt.statsPath.c_str());
    } else {
      std::fprintf(stderr, "stsyn: error writing %s\n", opt.statsPath.c_str());
    }
  }

  void writeTrace() const {
    std::ofstream out(opt.tracePath);
    if (!out) {
      std::fprintf(stderr, "stsyn: cannot write %s\n", opt.tracePath.c_str());
      return;
    }
    const stsyn::obs::Tracer& tracer = stsyn::obs::Tracer::global();
    tracer.writeChromeTrace(out);
    if (out.good()) {
      std::printf("wrote trace to %s (%zu events", opt.tracePath.c_str(),
                  tracer.eventCount());
      if (tracer.droppedCount() > 0) {
        std::printf(", %llu oldest dropped",
                    static_cast<unsigned long long>(tracer.droppedCount()));
      }
      std::printf(")\n");
    } else {
      std::fprintf(stderr, "stsyn: error writing %s\n", opt.tracePath.c_str());
    }
  }
};

int runLintFile(const stsyn::cli::Options& opt) {
  std::ifstream in(opt.path);
  if (!in) {
    std::fprintf(stderr, "stsyn: cannot open protocol file %s\n",
                 opt.path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return stsyn::cli::runLintSource(buf.str(), opt.path, opt, std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stsyn;

  cli::Options opt;
  const int parseStatus = cli::parseArgs(argc, argv, opt, std::cerr);
  if (parseStatus >= 0) return parseStatus;

  if (opt.mode == cli::Mode::Lint) return runLintFile(opt);
  if (opt.mode == cli::Mode::Serve) {
    return serve::runServe(opt, std::cout, std::cerr);
  }

  if (!opt.tracePath.empty()) obs::Tracer::global().enable();

  cli::Report report;
  const ArtifactWriter artifacts{opt, report};

  protocol::Protocol p;
  try {
    p = lang::parseProtocolFile(opt.path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stsyn: %s\n", e.what());
    return 2;
  }
  if (opt.print) std::printf("%s\n", lang::printProtocol(p).c_str());

  const cli::RunOutcome outcome =
      cli::runProtocol(p, opt, report, std::cout, std::cerr);

  if (!opt.outputPath.empty() && !outcome.program.empty()) {
    std::ofstream out(opt.outputPath);
    if (!out) {
      std::fprintf(stderr, "stsyn: cannot write %s\n", opt.outputPath.c_str());
      return 2;
    }
    out << outcome.program;
    std::printf("wrote stabilizing protocol to %s\n", opt.outputPath.c_str());
  }
  return outcome.exitCode;
}
