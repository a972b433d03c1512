#include "util/table.hh"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace ena {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    ENA_ASSERT(!headers_.empty(), "table needs at least one column");
}

TextTable &
TextTable::row()
{
    rows_.emplace_back();
    return *this;
}

TextTable &
TextTable::add(const std::string &cell)
{
    ENA_ASSERT(!rows_.empty(), "add() before row()");
    ENA_ASSERT(rows_.back().size() < headers_.size(),
               "row has more cells than headers");
    rows_.back().push_back(cell);
    return *this;
}

TextTable &
TextTable::add(const char *cell)
{
    return add(std::string(cell));
}

TextTable &
TextTable::add(double v, const char *fmt)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return add(std::string(buf));
}

TextTable &
TextTable::add(int v)
{
    return add(std::to_string(v));
}

TextTable &
TextTable::add(long long v)
{
    return add(std::to_string(v));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &r : rows_) {
        for (size_t c = 0; c < r.size(); ++c)
            widths[c] = std::max(widths[c], r[c].size());
    }

    auto emit_row = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < headers_.size(); ++c) {
            const std::string &cell = c < cells.size() ? cells[c] : "";
            os << cell;
            if (c + 1 < headers_.size())
                os << std::string(widths[c] - cell.size() + 2, ' ');
        }
        os << "\n";
    };

    emit_row(headers_);
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << "\n";
    for (const auto &r : rows_)
        emit_row(r);
}

namespace {

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // anonymous namespace

void
TextTable::printCsv(std::ostream &os) const
{
    for (size_t c = 0; c < headers_.size(); ++c)
        os << csvEscape(headers_[c]) << (c + 1 < headers_.size() ? "," : "");
    os << "\n";
    for (const auto &r : rows_) {
        for (size_t c = 0; c < headers_.size(); ++c) {
            if (c < r.size())
                os << csvEscape(r[c]);
            if (c + 1 < headers_.size())
                os << ",";
        }
        os << "\n";
    }
}

void
TextTable::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        ENA_FATAL("cannot open '", path, "' for writing");
    printCsv(out);
}

} // namespace ena
