#include "study/device_study.h"

#include <algorithm>
#include <cmath>

#include <optional>

#include "core/distscroll_device.h"
#include "human/fitts.h"
#include "human/hand_model.h"
#include "obs/stage_timer.h"
#include "util/stats.h"

namespace distscroll::study {

namespace {

/// A trial the participant has not finished by then is a failure.
constexpr double kTrialTimeoutS = 45.0;

void collect_leaves(const menu::MenuNode& node, std::vector<std::size_t>& path,
                    std::vector<MenuTarget>& out) {
  for (std::size_t i = 0; i < node.child_count(); ++i) {
    path.push_back(i);
    const menu::MenuNode& child = node.child(i);
    if (child.is_leaf()) {
      out.push_back({path, child.label()});
    } else {
      collect_leaves(child, path, out);
    }
    path.pop_back();
  }
}

/// Co-simulated participant operating the real device.
class DeviceParticipant {
 public:
  DeviceParticipant(core::DistScrollDevice& device, sim::EventQueue& queue,
                    const human::UserProfile& profile, sim::Rng rng)
      : device_(&device),
        queue_(&queue),
        profile_(profile),
        rng_(rng),
        hand_(rng_.fork(1)) {
    // Non-owning provider: the participant outlives every queue event of
    // its session (the device is powered off before it dies).
    device_->set_distance_provider_ref(core::DistScrollDevice::DistanceProvider(
        this, [](void* ctx, util::Seconds now) {
          return static_cast<DeviceParticipant*>(ctx)->hand_.distance(now);
        }));
  }

  void set_profile(const human::UserProfile& profile) { profile_ = profile; }

  /// Advance simulated time by dt (device firmware runs on the queue).
  void advance(double dt) { queue_->run_until(util::Seconds{queue_->now().value + dt}); }

  [[nodiscard]] double now() const { return queue_->now().value; }

  /// The aim distance the participant believes selects `index` in the
  /// current level. Knowledge of the mapping comes with expertise.
  [[nodiscard]] double aim_distance_for(std::size_t index) {
    const auto& mapper = device_->mapper();
    const std::size_t island =
        std::min(device_->controller().to_menu_index(index), mapper.entries() - 1);
    const double centre = mapper.centre_distance(island).value;
    const double knowledge_noise = (1.0 - profile_.expertise) * 1.2;
    return centre + rng_.gaussian(0.0, profile_.aim_w0_cm + knowledge_noise);
  }

  /// Reach until the cursor sits on `index` in the current level.
  /// Returns false on per-step timeout.
  bool acquire_index(std::size_t index, double deadline_s, int& reaim_count) {
    bool first = true;
    while (now() < deadline_s) {
      const double from = hand_.distance(util::Seconds{now()}).value;
      const double aim = aim_distance_for(index);
      const double width = estimate_island_width_cm();
      const auto reach = human::movement_time(profile_.reach_fitts, std::abs(aim - from), width);
      if (!first) ++reaim_count;
      first = false;
      hand_.start_reach(util::Seconds{now()}, aim, reach);
      advance(reach.value);
      // Settle and perceive.
      advance(profile_.reaction_time_s + 0.20);
      if (device_->cursor().index() == index) return true;
    }
    return false;
  }

  /// Press the select (or back) button for a realistic press duration.
  void press(input::Button& button) {
    const double duration = profile_.button_press_s;
    button.press();
    advance(duration);
    button.release();
    advance(0.06);
  }

  DeviceTrialResult run_trial(const MenuTarget& target) {
    DeviceTrialResult result;
    const double t0 = now();
    const double deadline = t0 + kTrialTimeoutS;

    // Start from the root level each trial (press back until at root).
    while (device_->cursor().depth() > 0 && now() < deadline) {
      press(device_->back_button());
    }

    std::size_t path_pos = 0;
    std::size_t leaf_events_seen = device_->selections().size();
    while (now() < deadline) {
      const std::size_t want = target.path[path_pos];
      if (!acquire_index(want, deadline, result.reaim_count)) break;

      // Verify the label, then commit with the thumb button.
      advance(profile_.verification_time_s);
      press(device_->select_button());

      // What actually happened? (tremor may have moved the cursor during
      // the press, or the press may have slipped entirely)
      const auto& events = device_->selections();
      if (events.size() == leaf_events_seen) {
        // Press did not register (debounce raced / slipped): retry.
        continue;
      }
      leaf_events_seen = events.size();
      const auto& last = events.back();

      if (last.is_leaf) {
        if (path_pos + 1 == target.path.size() && last.label == target.label) {
          result.success = true;
          result.time_s = now() - t0;
          return result;
        }
        // Activated the wrong leaf.
        ++result.wrong_activations;
        continue;  // still at the same level: re-acquire
      }
      // Entered a submenu.
      const std::size_t entered_depth = device_->cursor().depth();
      if (entered_depth == path_pos + 1 && last.label == label_on_path(target, path_pos)) {
        ++path_pos;  // correct descent
      } else {
        // Wrong submenu: back out.
        ++result.wrong_activations;
        press(device_->back_button());
      }
    }
    result.time_s = now() - t0;
    return result;
  }

  /// Discovery phase: free exploration until the distance->selection
  /// relation clicks. "Even when no hints were given, the manner of
  /// operation was promptly discovered" — tens of seconds at most.
  double run_discovery() {
    const double t0 = now();
    const double base = 3.0 + rng_.exponential(5.0 * (1.0 - 0.6 * profile_.expertise));
    // The user waves the device around while figuring it out.
    while (now() - t0 < base) {
      const double to = rng_.uniform(5.0, 28.0);
      const auto reach = human::movement_time(profile_.reach_fitts,
                                              std::abs(to - hand_.target_cm()), 2.0);
      hand_.start_reach(util::Seconds{now()}, to, reach);
      advance(reach.value + 0.3);
    }
    return now() - t0;
  }

 private:
  [[nodiscard]] std::string label_on_path(const MenuTarget& target, std::size_t pos) const {
    // Resolve the label of path element `pos` by walking the tree.
    const menu::MenuNode* node = menu_root_;
    for (std::size_t i = 0; i < pos; ++i) node = &node->child(target.path[i]);
    return node->child(target.path[pos]).label();
  }

  [[nodiscard]] double estimate_island_width_cm() const {
    const auto& cfg = device_->mapper().config();
    const std::size_t entries = std::max<std::size_t>(1, device_->mapper().entries());
    return std::max(0.3, (cfg.far.value - cfg.near.value) / static_cast<double>(entries) *
                             cfg.coverage);
  }

 public:
  void set_menu_root(const menu::MenuNode* root) { menu_root_ = root; }

 private:
  core::DistScrollDevice* device_;
  sim::EventQueue* queue_;
  human::UserProfile profile_;
  sim::Rng rng_;
  human::HandModel hand_;
  const menu::MenuNode* menu_root_ = nullptr;
};

}  // namespace

std::vector<MenuTarget> all_leaf_targets(const menu::MenuNode& root) {
  std::vector<MenuTarget> out;
  std::vector<std::size_t> path;
  collect_leaves(root, path, out);
  return out;
}

DeviceParticipantResult run_device_participant(const menu::MenuNode& menu_root,
                                               human::UserProfile profile,
                                               const DeviceStudyConfig& config, sim::Rng rng) {
  sim::EventQueue queue;
  std::optional<core::DistScrollDevice> device;
  {
    DS_STAGE(TrialSetup);
    device.emplace(core::DistScrollDevice::Config{}, menu_root, queue, rng.fork(1));
  }
  core::DistScrollDevice& dev = *device;
  dev.power_on();

  DeviceParticipant participant(dev, queue, profile, rng.fork(2));
  participant.set_menu_root(&menu_root);

  DeviceParticipantResult result;
  result.name = profile.name;
  result.discovery_time_s = participant.run_discovery();

  const auto targets = all_leaf_targets(menu_root);
  sim::Rng target_rng = rng.fork(3);

  for (std::size_t block = 0; block < config.blocks; ++block) {
    std::vector<double> times;
    double successes = 0, errors = 0;
    for (std::size_t trial = 0; trial < config.trials_per_block; ++trial) {
      const auto& target =
          targets[static_cast<std::size_t>(target_rng.uniform_int(0, static_cast<int>(targets.size()) - 1))];
      const DeviceTrialResult r = participant.run_trial(target);
      if (r.success) {
        successes += 1;
        times.push_back(r.time_s);
      }
      errors += r.wrong_activations;
    }
    DeviceBlockResult b;
    b.block = block;
    b.expertise = profile.expertise;
    b.success_rate = successes / static_cast<double>(config.trials_per_block);
    b.errors_per_trial = errors / static_cast<double>(config.trials_per_block);
    if (!times.empty()) b.mean_time_s = util::summarize(times).mean;
    result.blocks.push_back(b);

    profile = profile.with_expertise(human::practice(profile.expertise, kDeviceLearningRate));
    participant.set_profile(profile);
  }
  dev.power_off();
  return result;
}

}  // namespace distscroll::study
