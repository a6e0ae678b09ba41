// Fixture: a binary that walks argv itself trips argv-parse once per line
// that indexes argv or strcmp()s it; this comment's argv[1] does not, a
// spawned child's `cargv[0]` does not, and neither does the allow()ed line.
#include <cstring>
#include <string>
#include <vector>

int main(int argc, char** argv) {
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[i + 1];
    if (strncmp(argv [i], "--x=", 4) == 0) out = "x";
  }
  std::vector<char*> cargv = {argv[0]};  // flint-lint: allow(argv-parse): fixture
  const char* first = cargv[0];
  return first == nullptr || out.empty();
}
