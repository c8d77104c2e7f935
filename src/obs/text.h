// Text helpers shared by the obs writers (metrics, trace, report). Internal
// to src/obs: the deterministic sinks format numbers and escape strings the
// same way, and every writer reports a failed write the same way.
#pragma once

#include <string>

namespace lp::obs::detail {

/// `v` with 9 significant digits ("%.9g"): round-trips every value the
/// sinks print and is byte-stable across runs.
std::string fmt_double(double v);

/// `s` escaped for the inside of a JSON string literal.
std::string json_escape(const std::string& s);

/// Writes `body` to `path`, replacing the file. False when the file cannot
/// be opened, a write comes up short or the close fails (a full disk
/// surfaces at the flush in fclose).
bool write_file(const std::string& path, const std::string& body);

}  // namespace lp::obs::detail
