// Fixture: test-only-api. Two members no program calls — one only a
// test reads, one nothing calls at all — beside near-misses that must
// stay silent: an override reached only through its base, a member
// only perfbench/ calls, a member called inside a macro body, and a
// constructor and operator, which are never reported.
#pragma once

namespace fixture {

class Meter {
 public:
  virtual ~Meter() = default;
  virtual int read() const = 0;
};

class Odometer : public Meter {
 public:
  explicit Odometer(int km) : km_(km) {}
  int read() const override { return km_; }  // silent: called through Meter
  int raw_km() const { return km_; }         // finding: tests only
  void recalibrate(int km) { km_ = km; }     // finding: unreferenced
  int bench_km() const { return km_; }       // silent: perfbench/ calls it
  int macro_km() const { return km_; }       // silent: called in a macro body
  bool operator==(const Odometer& other) const { return km_ == other.km_; }

 private:
  int km_ = 0;
};

}  // namespace fixture
