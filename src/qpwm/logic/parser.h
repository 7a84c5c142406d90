// Recursive-descent parser for the FO/MSO surface syntax.
//
// Grammar (precedence low to high: <-> , -> , | , & , ~ / quantifiers):
//   exists y (E(x, y) & ~(y = z))
//   forallset X (x in X -> exists y (E(x, y) & y in X))
// `->` and `<->` are desugared into the core connectives.
#ifndef QPWM_LOGIC_PARSER_H_
#define QPWM_LOGIC_PARSER_H_

#include <cstddef>
#include <string_view>

#include "qpwm/logic/formula.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// Nesting levels ParseFormula accepts, the innermost formula included: each
/// `~`, quantifier, parenthesis and right-nested `->` opens one. The parser
/// recurses a few frames per level, so the limit bounds stack use on hostile
/// input the way XmlParseLimits::max_depth does for XML; deeper input is a
/// ParseError.
inline constexpr size_t kMaxFormulaDepth = 1024;

/// Formula nodes ParseFormula builds. Every connective and atom costs one
/// node, so plain text stays within a small multiple of its length; only
/// `<->`, which copies both of its sides, can outgrow it: a chain of k
/// `<->` would build about 2^k nodes. Input that needs more is a ParseError.
inline constexpr size_t kMaxFormulaNodes = size_t{1} << 18;

/// Parses a formula; returns ParseError with position context on failure.
[[nodiscard]] Result<FormulaPtr> ParseFormula(std::string_view text);

/// Parses, aborting on error — for formulas embedded in code.
FormulaPtr MustParseFormula(std::string_view text);

}  // namespace qpwm

#endif  // QPWM_LOGIC_PARSER_H_
