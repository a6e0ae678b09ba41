// Fixture: the benchmark under perfbench/ keeps its own flag parser, so
// argv-parse stays quiet there.
#include <cstring>

bool wants_trace(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--trace") == 0) return true;
  return false;
}
