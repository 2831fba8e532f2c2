// QL014 fixture: the serializer/deserializer field lists disagree in both
// directions — "beta" is written but never read, "gamma" is read but never
// written. "alpha" agrees and must not be flagged; the quoted word "delta"
// appears only in this comment and must be ignored.
#include <iostream>
#include <string>

namespace fixture {

struct Blob {
  unsigned long alpha = 0;
  unsigned long beta = 0;
  unsigned long gamma = 0;
};

void write_snapshot(std::ostream& out, const Blob& blob) {
  out << "alpha " << blob.alpha << '\n';
  out << "beta " << blob.beta << '\n';
}

Blob read_snapshot(std::istream& in) {
  Blob blob;
  std::string word;
  while (in >> word) {
    if (word == "alpha") in >> blob.alpha;
    if (word == "gamma") in >> blob.gamma;
  }
  return blob;
}

}  // namespace fixture
