// Unit tests for the Smart-Its hardware substrate.
#include <gtest/gtest.h>

#include "hw/adc.h"
#include "hw/battery.h"
#include "hw/gpio.h"
#include "hw/i2c.h"
#include "hw/mcu.h"
#include "hw/smart_its.h"
#include "hw/uart.h"

namespace distscroll::hw {
namespace {

// --- battery -----------------------------------------------------------------

TEST(Battery, TracksConsumersAndDraw) {
  Battery bat;
  const auto mcu = bat.add_consumer("mcu", 12.0);
  const auto sensor = bat.add_consumer("sensor", 33.0);
  EXPECT_DOUBLE_EQ(bat.total_draw_ma(), 45.0);
  EXPECT_EQ(bat.consumer_name(mcu), "mcu");
  EXPECT_EQ(bat.consumer_name(sensor), "sensor");
}

TEST(Battery, ConsumesCoulombs) {
  Battery bat;
  bat.add_consumer("load", 100.0);
  bat.consume(util::Seconds{3600.0});  // one hour at 100 mA
  EXPECT_NEAR(bat.remaining_fraction(), 1.0 - 100.0 / 550.0, 1e-9);
}

TEST(Battery, VoltageSagsUnderLoad) {
  Battery light, heavy;
  light.add_consumer("l", 5.0);
  heavy.add_consumer("h", 200.0);
  EXPECT_GT(light.voltage().value, heavy.voltage().value);
}

TEST(Battery, DepletesAndEstimatesRuntime) {
  Battery::Config config;
  config.capacity_mah = 10.0;
  Battery bat(config);
  bat.add_consumer("load", 10.0);
  EXPECT_NEAR(bat.estimated_runtime_hours(), 1.0, 1e-9);
  EXPECT_FALSE(bat.depleted());
  bat.consume(util::Seconds{3600.0});
  EXPECT_TRUE(bat.depleted());
}

TEST(Battery, PerConsumerAccounting) {
  Battery bat;
  bat.add_consumer("a", 10.0);
  bat.add_consumer("b", 30.0);
  bat.consume(util::Seconds{3600.0});
  EXPECT_NEAR(bat.per_consumer_mah()[0], 10.0, 1e-9);
  EXPECT_NEAR(bat.per_consumer_mah()[1], 30.0, 1e-9);
}

// --- ADC -----------------------------------------------------------------------

TEST(Adc, QuantizesAgainstVref) {
  Adc10::Config config;
  config.noise_lsb_stddev = 0.0;
  Adc10 adc(config, sim::Rng(1));
  const auto ch = adc.attach(+[](util::Seconds) { return util::Volts{2.5}; });
  const auto counts = adc.sample(ch, util::Seconds{0.0});
  EXPECT_NEAR(counts.value, 2.5 / 5.0 * 1023.0, 1.0);
}

TEST(Adc, ClampsOutOfRangeInputs) {
  Adc10::Config config;
  config.noise_lsb_stddev = 0.0;
  Adc10 adc(config, sim::Rng(1));
  const auto hi = adc.attach(+[](util::Seconds) { return util::Volts{9.0}; });
  const auto lo = adc.attach(+[](util::Seconds) { return util::Volts{-1.0}; });
  EXPECT_EQ(adc.sample(hi, util::Seconds{0.0}).value, 1023);
  EXPECT_EQ(adc.sample(lo, util::Seconds{0.0}).value, 0);
}

TEST(Adc, NoiseStaysWithinAFewLsb) {
  Adc10 adc({}, sim::Rng(2));
  const auto ch = adc.attach(+[](util::Seconds) { return util::Volts{2.0}; });
  const double expected = 2.0 / 5.0 * 1023.0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_NEAR(adc.sample(ch, util::Seconds{0.0}).value, expected, 4.0);
  }
}

TEST(Adc, MultipleChannelsIndependent) {
  Adc10::Config config;
  config.noise_lsb_stddev = 0.0;
  Adc10 adc(config, sim::Rng(4));
  const auto a = adc.attach(+[](util::Seconds) { return util::Volts{1.0}; });
  const auto b = adc.attach(+[](util::Seconds) { return util::Volts{4.0}; });
  EXPECT_LT(adc.sample(a, util::Seconds{0.0}).value, adc.sample(b, util::Seconds{0.0}).value);
}

// --- GPIO ------------------------------------------------------------------------

TEST(Gpio, InputsDefaultHighViaPullUp) {
  Gpio gpio(4);
  EXPECT_EQ(gpio.read(0), PinLevel::High);
}

// --- I2C -----------------------------------------------------------------------

class EchoSlave final : public I2cSlave {
 public:
  bool on_write(std::span<const std::uint8_t> data) override {
    last.assign(data.begin(), data.end());
    return true;
  }
  std::vector<std::uint8_t> on_read(std::size_t length) override {
    return std::vector<std::uint8_t>(length, 0x5A);
  }
  std::vector<std::uint8_t> last;
};

TEST(I2c, WriteReachesSlave) {
  I2cBus bus;
  EchoSlave slave;
  bus.attach(0x3C, &slave);
  const std::uint8_t payload[] = {1, 2, 3};
  const auto result = bus.write(0x3C, payload);
  EXPECT_TRUE(result.acked);
  EXPECT_EQ(slave.last, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(I2c, MissingSlaveNacks) {
  I2cBus bus;
  const std::uint8_t payload[] = {1};
  EXPECT_FALSE(bus.write(0x10, payload).acked);
  EXPECT_FALSE(bus.read(0x10, 4).acked);
}

TEST(I2c, ReadReturnsSlaveData) {
  I2cBus bus;
  EchoSlave slave;
  bus.attach(0x3D, &slave);
  const auto result = bus.read(0x3D, 3);
  EXPECT_TRUE(result.acked);
  EXPECT_EQ(result.data, (std::vector<std::uint8_t>{0x5A, 0x5A, 0x5A}));
}

TEST(I2c, BusTimeScalesWithPayload) {
  I2cBus bus;
  EchoSlave slave;
  bus.attach(0x3C, &slave);
  std::vector<std::uint8_t> small(2), large(20);
  const auto t_small = bus.write(0x3C, small).bus_time;
  const auto t_large = bus.write(0x3C, large).bus_time;
  EXPECT_GT(t_large.value, t_small.value * 3);
  // 100 kHz standard mode: 21 bytes * 9 bits = ~1.9 ms.
  EXPECT_NEAR(t_large.value, 21 * 9 / 100000.0, 1e-6);
}

TEST(I2c, CountsTraffic) {
  I2cBus bus;
  EchoSlave slave;
  bus.attach(0x3C, &slave);
  const std::uint8_t payload[] = {1, 2};
  bus.write(0x3C, payload);
  bus.read(0x3C, 1);
  EXPECT_EQ(bus.transactions(), 2u);
}

// --- UART ---------------------------------------------------------------------

TEST(Uart, ByteTimeMatchesBaud) {
  Uart uart;
  EXPECT_NEAR(uart.byte_time().value, 10.0 / 115200.0, 1e-12);
}

TEST(Uart, TxFifoOrderAndOverflow) {
  Uart uart;
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(uart.transmit(static_cast<std::uint8_t>(i)));
  EXPECT_FALSE(uart.transmit(0xFF));  // full
  EXPECT_EQ(uart.clock_out(), 0);
  EXPECT_EQ(uart.clock_out(), 1);
}

// --- MCU --------------------------------------------------------------------------

TEST(Mcu, CycleAccounting) {
  sim::EventQueue queue;
  Mcu mcu(queue);
  mcu.charge_cycles(100);
  mcu.charge_cycles(23);
  EXPECT_EQ(mcu.cycles(), 123u);
}

TEST(Mcu, MemoryBudgets) {
  sim::EventQueue queue;
  Mcu mcu(queue);
  mcu.reserve_ram(1000);
  EXPECT_EQ(mcu.ram_used(), 1000u);
  mcu.reserve_flash(1024);
  EXPECT_EQ(mcu.flash_used(), 1024u);
}

TEST(Mcu, PeriodicTimerFiresAtPeriod) {
  sim::EventQueue queue;
  Mcu mcu(queue);
  int fired = 0;
  mcu.start_timer(util::Seconds{0.01}, [&] { ++fired; });
  queue.run_until(util::Seconds{0.095});
  EXPECT_EQ(fired, 9);
}

TEST(Mcu, StoppedTimerStopsFiring) {
  sim::EventQueue queue;
  Mcu mcu(queue);
  int fired = 0;
  const auto timer = mcu.start_timer(util::Seconds{0.01}, [&] { ++fired; });
  queue.run_until(util::Seconds{0.035});
  mcu.stop_timer(timer);
  queue.run_until(util::Seconds{1.0});
  EXPECT_EQ(fired, 3);
}

TEST(Mcu, TimerCanStopItself) {
  sim::EventQueue queue;
  Mcu mcu(queue);
  int fired = 0;
  std::size_t id = 0;
  id = mcu.start_timer(util::Seconds{0.01}, [&] {
    if (++fired == 2) mcu.stop_timer(id);
  });
  queue.run_until(util::Seconds{1.0});
  EXPECT_EQ(fired, 2);
}

// --- SmartIts board ---------------------------------------------------------------

TEST(SmartIts, WiresSubsystems) {
  sim::EventQueue queue;
  SmartIts board({}, queue, sim::Rng(1));
  EXPECT_GT(board.battery().total_draw_ma(), 0.0);  // base draw registered
  EXPECT_EQ(board.gpio().read(SmartIts::kGpioPins - 1), PinLevel::High);
  EXPECT_EQ(board.mcu().cycles(), 0u);
}

}  // namespace
}  // namespace distscroll::hw
