// Trace-schema checker: validates a JSON-lines trace file (or stdin)
// against the event schema via trace::validate_event_line; any line a sink
// emits that the validator rejects is a schema break. The
// gossip_liveness_trace_schema ctest runs it on a gossip_liveness trace.
//
// Usage: validate_trace [file.jsonl]   (no argument = stdin)
// Exit: 0 all lines valid, 1 first invalid line (reported), 2 bad usage.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "trace/event.hpp"

int main(int argc, char** argv) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (argc > 1) {
    file.open(argv[1]);
    if (!file) {
      std::fprintf(stderr, "validate_trace: cannot open %s\n", argv[1]);
      return 2;
    }
    in = &file;
  }

  std::string line;
  std::string error;
  unsigned long long lines = 0;
  while (std::getline(*in, line)) {
    if (line.empty()) continue;
    ++lines;
    if (!hours::trace::validate_event_line(line, &error)) {
      std::fprintf(stderr, "validate_trace: line %llu invalid: %s\n  %s\n", lines,
                   error.c_str(), line.c_str());
      return 1;
    }
  }
  std::printf("validate_trace: %llu lines, all schema-valid\n", lines);
  return 0;
}
