#ifndef DVMS_BENCH_JSON_LINE_H_
#define DVMS_BENCH_JSON_LINE_H_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace dvms {

/// Appends one printf-formatted JSON object line to the file named by
/// DVMS_BENCH_JSON (no-op when unset); ci.sh wraps each bench's lines into
/// its BENCH_*.json array.
inline void AppendJsonLine(const char* fmt, ...) {
  const char* path = std::getenv("DVMS_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  va_list args;
  va_start(args, fmt);
  std::vfprintf(f, fmt, args);
  va_end(args);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace dvms

#endif  // DVMS_BENCH_JSON_LINE_H_
