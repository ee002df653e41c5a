/**
 * @file
 * Minimal machine-readable bench output: a flat JSON object of
 * dotted-key metrics (BENCH_micro.json, BENCH_fig09.json) so the perf
 * trajectory can be tracked across PRs without parsing tables.
 */

#ifndef CAMLLM_BENCH_JSON_OUT_H
#define CAMLLM_BENCH_JSON_OUT_H

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace camllm::bench {

/** Accumulates metrics and writes them as one flat JSON object. */
class BenchJson
{
  public:
    void
    add(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", value);
        entries_.emplace_back(key, buf);
    }

    void
    add(const std::string &key, std::uint64_t value)
    {
        entries_.emplace_back(key, std::to_string(value));
    }

    void
    addString(const std::string &key, const std::string &value)
    {
        std::string quoted = "\"";
        for (const char c : value) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += c;
        }
        entries_.emplace_back(key, quoted + "\"");
    }

    /** @return true when the file was written. */
    bool
    writeTo(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\n";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            out << "  \"" << entries_[i].first
                << "\": " << entries_[i].second;
            if (i + 1 < entries_.size())
                out << ",";
            out << "\n";
        }
        out << "}\n";
        out.flush(); // surface late I/O errors (e.g. full disk) here
        return bool(out);
    }

  private:
    std::vector<std::pair<std::string, std::string>> entries_;
};

} // namespace camllm::bench

#endif // CAMLLM_BENCH_JSON_OUT_H
