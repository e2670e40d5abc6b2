/**
 * @file
 * Plain-text presentation helpers for the bench harnesses: aligned
 * tables and ASCII density sketches so each bench can print the same
 * rows/curves the paper's figures show.
 */

#ifndef UNXPEC_ANALYSIS_TABLE_HH
#define UNXPEC_ANALYSIS_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

#include "analysis/kde.hh"

namespace unxpec {

/** Column-aligned text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Format a double with fixed precision. */
    static std::string num(double value, int precision = 1);

    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** ASCII rendering of one or two density curves (Figs. 7/8 style). */
void printDensity(std::ostream &os, const DensityCurve &a,
                  const std::string &label_a, const DensityCurve &b,
                  const std::string &label_b, unsigned height = 12);

} // namespace unxpec

#endif // UNXPEC_ANALYSIS_TABLE_HH
