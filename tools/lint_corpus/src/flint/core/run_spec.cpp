// Fixture: core::RunSpec's parser is argv-parse's one allowed home.
#include <string>

std::string flag_at(char** argv, int i) { return argv[i]; }
