// The Smart-Its board pair (Gellersen et al., cited as [4]/[12] in the
// paper): a base board carrying the PIC 18F452, UART and power, plus an
// add-on board carrying the application peripherals — here the GP2D120
// distance sensor, the ADXL311 accelerometer, two BT96040 displays and
// three push buttons (paper Fig. 2 / Fig. 3; the display contrast
// trimmer is not modelled, and the firmware never samples the
// accelerometer, so it is not wired here).
//
// SmartIts owns the shared buses and budgets; peripherals are attached
// by the device layer (core::DistScrollDevice), mirroring how the
// physical add-on board plugs onto the base board connectors.
#pragma once

#include <memory>

#include "hw/adc.h"
#include "hw/battery.h"
#include "hw/gpio.h"
#include "hw/i2c.h"
#include "hw/mcu.h"
#include "hw/uart.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace distscroll::hw {

class SmartIts {
 public:
  struct Config {
    Adc10::Config adc{};
    Battery::Config battery{};
  };

  /// Regulator + MCU active draw of the board itself.
  static constexpr double kBoardDrawMa = 12.0;
  /// Digital I/O pins the add-on connector brings out.
  static constexpr std::size_t kGpioPins = 8;

  SmartIts(Config config, sim::EventQueue& queue, sim::Rng rng)
      : battery_(config.battery),
        mcu_(queue),
        adc_(config.adc, rng.fork(0xADC)),
        gpio_(kGpioPins) {
    // Baseline draws of the board itself (regulator + MCU active).
    battery_.add_consumer("base-board+mcu", kBoardDrawMa);
  }

  [[nodiscard]] Battery& battery() { return battery_; }
  [[nodiscard]] Mcu& mcu() { return mcu_; }
  [[nodiscard]] Adc10& adc() { return adc_; }
  [[nodiscard]] I2cBus& i2c() { return i2c_; }
  [[nodiscard]] Uart& uart() { return uart_; }
  [[nodiscard]] Gpio& gpio() { return gpio_; }

  [[nodiscard]] const Battery& battery() const { return battery_; }
  [[nodiscard]] const Mcu& mcu() const { return mcu_; }

 private:
  Battery battery_;
  Mcu mcu_;
  Adc10 adc_;
  I2cBus i2c_;
  Uart uart_;
  Gpio gpio_;
};

}  // namespace distscroll::hw
