// Fixture: no-alloc-markers, the full allocation vocabulary. Every
// spelling below is flagged inside a DS_HOT region: the fresh-storage
// free functions when called, the standard-container members when called
// through '.' or '->'. Each has a near-miss that stays silent: the same
// name not called (a using-declaration or an address), or called as a
// free function rather than a member.
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#define DS_HOT_BEGIN
#define DS_HOT_END

namespace fixture {

// Free functions named like the container members.
int push_front(std::vector<int>& v);
int emplace_front(std::vector<int>& v);
int emplace_hint(std::vector<int>& v);
int try_emplace(std::vector<int>& v);
int insert_or_assign(std::vector<int>& v);
int insert_range(std::vector<int>& v);
int append_range(std::vector<int>& v);
int prepend_range(std::vector<int>& v);
int assign(std::vector<int>& v);
int assign_range(std::vector<int>& v);
int resize_and_overwrite(std::vector<int>& v);
int shrink_to_fit(std::vector<int>& v);

DS_HOT_BEGIN
int hot_spellings(std::vector<int>& v, std::deque<int>& d, std::map<int, int>& m,
                  std::string& s, std::allocator<int> alloc) {
  auto a = std::make_unique_for_overwrite<int[]>(4);        // finding
  auto b = std::make_shared_for_overwrite<int[]>(4);        // finding
  auto c = std::allocate_shared<int>(alloc, 1);             // finding
  auto e = std::allocate_shared_for_overwrite<int>(alloc);  // finding
  void* f = std::aligned_alloc(64, 64);                     // finding
  char* g = strndup("ab", 1);                               // finding
  d.push_front(1);                                          // finding
  d.emplace_front(2);                                       // finding
  m.emplace_hint(m.end(), 3, 3);                            // finding
  m.try_emplace(4, 4);                                      // finding
  m.insert_or_assign(5, 5);                                 // finding
  v.insert_range(v.end(), d);                               // finding
  v.append_range(d);                                        // finding
  d.prepend_range(v);                                       // finding
  v.assign(3, 0);                                           // finding
  v.assign_range(d);                                        // finding
  s.resize_and_overwrite(8, [](char*, std::size_t n) { return n; });  // finding
  v.shrink_to_fit();                                        // finding
  // Near-misses: named, never called.
  using std::make_unique_for_overwrite;
  using std::make_shared_for_overwrite;
  using std::allocate_shared;
  using std::allocate_shared_for_overwrite;
  auto* aligned = &std::aligned_alloc;
  auto* ndup = &strndup;
  // Near-misses: free calls, not container members.
  int x = push_front(v) + emplace_front(v) + emplace_hint(v) + try_emplace(v);
  x += insert_or_assign(v) + insert_range(v) + append_range(v) + prepend_range(v);
  x += assign(v) + assign_range(v) + resize_and_overwrite(v) + shrink_to_fit(v);
  std::free(f);
  std::free(g);
  (void)aligned;
  (void)ndup;
  return x + *a.get() + *b.get() + *c + *e;
}
DS_HOT_END

}  // namespace fixture
