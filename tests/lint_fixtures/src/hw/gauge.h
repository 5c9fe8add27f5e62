// Fixture: test-only-api by include closure, the live half. Gauge and
// Dial (hw/dial.h) each declare level(); gauge_user.cpp includes only
// this header and calls it, so Gauge::level stays silent.
#pragma once

namespace fixture {

class Instrument {
 public:
  virtual ~Instrument() = default;
  virtual int zero() const = 0;
};

class Gauge : public Instrument {
 public:
  int zero() const override { return 0; }
  int level() const { return level_; }  // silent: gauge_user.cpp calls it

 private:
  int level_ = 0;
};

}  // namespace fixture
