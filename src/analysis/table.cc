#include "analysis/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/log.hh"

namespace unxpec {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        fatal("TextTable::addRow: column-count mismatch");
    rows_.push_back(std::move(cells));
}

std::string
TextTable::num(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << "  " << std::left << std::setw(static_cast<int>(widths[c]))
               << cells[c];
        }
        os << "\n";
    };
    print_row(headers_);
    std::string rule;
    for (std::size_t c = 0; c < widths.size(); ++c)
        rule += "  " + std::string(widths[c], '-');
    os << rule << "\n";
    for (const auto &row : rows_)
        print_row(row);
}

void
printDensity(std::ostream &os, const DensityCurve &a,
             const std::string &label_a, const DensityCurve &b,
             const std::string &label_b, unsigned height)
{
    if (a.x.empty() || a.x.size() != b.x.size()) {
        os << "(density curves unavailable)\n";
        return;
    }
    double peak = 0.0;
    for (const double d : a.density)
        peak = std::max(peak, d);
    for (const double d : b.density)
        peak = std::max(peak, d);
    if (peak <= 0.0)
        peak = 1.0;

    const std::size_t cols = a.x.size();
    for (unsigned row = 0; row < height; ++row) {
        const double level =
            peak * (height - row - 0.5) / static_cast<double>(height);
        std::string line;
        line.reserve(cols);
        for (std::size_t c = 0; c < cols; ++c) {
            const bool in_a = a.density[c] >= level;
            const bool in_b = b.density[c] >= level;
            if (in_a && in_b)
                line += '#';
            else if (in_a)
                line += 'o';
            else if (in_b)
                line += '*';
            else
                line += ' ';
        }
        os << "  |" << line << "\n";
    }
    os << "  +" << std::string(cols, '-') << "\n";
    os << "   x: [" << a.x.front() << ", " << a.x.back() << "] cycles;  o="
       << label_a << "  *=" << label_b << "  #=overlap\n";
}

} // namespace unxpec
