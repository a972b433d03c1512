/**
 * @file
 * Text table and CSV emitters used by the benchmark harness to print the
 * paper's tables and figure series.
 *
 * TextTable renders aligned columns for the console; the same rows can be
 * written as CSV for plotting. Numeric cells carry a printf-style format
 * so reproduced tables match the paper's precision.
 */

#ifndef ENA_UTIL_TABLE_HH
#define ENA_UTIL_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace ena {

class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Begin a new row; subsequent add() calls fill it left to right. */
    TextTable &row();

    /** Append a string cell to the current row. */
    TextTable &add(const std::string &cell);
    TextTable &add(const char *cell);

    /** Append a numeric cell formatted with @p fmt (default "%.3g"). */
    TextTable &add(double v, const char *fmt = "%.3g");
    TextTable &add(int v);
    TextTable &add(long long v);

    /** Number of data rows so far. */
    size_t numRows() const { return rows_.size(); }

    /** Render with aligned columns, a header rule, and 2-space gutters. */
    void print(std::ostream &os) const;

    /** Render as CSV (headers + rows). */
    void printCsv(std::ostream &os) const;

    /** Write CSV to a file; fatal() if the file cannot be opened. */
    void writeCsv(const std::string &path) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace ena

#endif // ENA_UTIL_TABLE_HH
