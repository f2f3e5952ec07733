// The one JSON string quoter: every JSON document the project writes
// (daemon protocol frames, worker requests, sweep failure reports, trace
// exports) quotes its strings here.
#pragma once

#include <string>
#include <string_view>

namespace afs {

/// `s` escaped and double-quoted for embedding in a JSON document.
/// Control characters become \b \f \n \r \t or \u escapes, so the output
/// never contains a raw newline — a quoted string is always frame-safe.
/// Every other byte, including non-ASCII UTF-8, passes through.
std::string json_quote(std::string_view s);

}  // namespace afs
