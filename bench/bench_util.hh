/**
 * @file
 * Shared helpers for the figure/table reproduction benches: a banner
 * that names the paper artifact being regenerated, cached access to
 * the DSE results several benches share, and the machine-readable
 * `--json <path>` report every perf bench emits for CI artifacts.
 */

#ifndef ENA_BENCH_BENCH_UTIL_HH
#define ENA_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/ena.hh"
#include "util/table.hh"

namespace ena {
namespace bench {

inline void
banner(const std::string &artifact, const std::string &caption)
{
    std::cout << "==============================================="
                 "=====================\n"
              << "Reproduction of " << artifact << "\n"
              << caption << "\n"
              << "==============================================="
                 "=====================\n\n";
}

/**
 * Print a result table; when the ENA_BENCH_CSV_DIR environment
 * variable names a directory, also write <dir>/<slug>.csv so the
 * regenerated figures can be plotted directly.
 */
inline void
show(const TextTable &t, const std::string &slug)
{
    t.print(std::cout);
    if (const char *dir = std::getenv("ENA_BENCH_CSV_DIR"))
        t.writeCsv(std::string(dir) + "/" + slug + ".csv");
}

/**
 * The machine-readable result a perf bench writes when invoked with
 * `--json <path>`. Every artifact shares one flat schema so the CI
 * perf job (and anything diffing two runs) needs exactly one parser:
 *
 *   {
 *     "bench": "<name>",
 *     "metrics": { "<key>": <number>, ... },
 *     "context": { "<key>": "<string>", ... }
 *   }
 *
 * Numbers are printed with %.17g so doubles round-trip exactly.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

    void
    metric(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        metrics_.emplace_back(key, buf);
    }

    void
    context(const std::string &key, const std::string &value)
    {
        context_.emplace_back(key, quoted(value));
    }

    /** Write the report; returns false (with a stderr note) on I/O
     *  failure so benches can exit nonzero. */
    bool
    writeTo(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\n  \"bench\": " << quoted(bench_) << ",\n";
        emit(out, "metrics", metrics_);
        out << ",\n";
        emit(out, "context", context_);
        out << "\n}\n";
        out.flush();
        if (!out) {
            std::cerr << "error: cannot write JSON report to " << path
                      << "\n";
            return false;
        }
        std::cout << "JSON report written to " << path << "\n";
        return true;
    }

  private:
    using Fields = std::vector<std::pair<std::string, std::string>>;

    static std::string
    quoted(const std::string &s)
    {
        std::string q = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        return q + "\"";
    }

    static void
    emit(std::ostream &out, const char *section, const Fields &fields)
    {
        out << "  \"" << section << "\": {";
        for (size_t i = 0; i < fields.size(); ++i) {
            out << (i ? ",\n    " : "\n    ")
                << quoted(fields[i].first) << ": " << fields[i].second;
        }
        out << (fields.empty() ? "}" : "\n  }");
    }

    std::string bench_;
    Fields metrics_;
    Fields context_;
};

/** The path following a `--json` flag, or "" when absent. */
inline std::string
jsonPathFromArgs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            return argv[i + 1];
    }
    return "";
}

/** Evaluator shared by all benches in one process. */
inline const NodeEvaluator &
evaluator()
{
    static NodeEvaluator eval;
    return eval;
}

/** The DSE-discovered best-mean configuration (expected 320/1/3). */
inline const NodeConfig &
bestMean()
{
    static NodeConfig cfg = discoveredBestMean(evaluator());
    return cfg;
}

} // namespace bench
} // namespace ena

#endif // ENA_BENCH_BENCH_UTIL_HH
