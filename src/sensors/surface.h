// Reflection target profiles for the IR ranger.
//
// The paper (Section 4.2) notes the GP2D120's key property: the colour
// (reflectivity) of the object in front of the sensor "does nearly not
// matter", verified with different clothing; only reflective surfaces
// with clear boundaries can distract the emitted light. SurfaceProfile
// captures exactly that: a reflectivity gain with tiny effect on the
// triangulated distance, plus an optional specular-boundary artefact
// that occasionally produces invalid readings.
#pragma once

namespace distscroll::sensors {

struct SurfaceProfile {
  /// Diffuse reflectivity relative to the datasheet's white reference
  /// (1.0). Gray card ~0.18, dark fleece ~0.1, white shirt ~0.9.
  double reflectivity = 0.7;

  /// Probability per measurement cycle that a specular boundary
  /// deflects the beam and the measurement is invalid (reads as
  /// out-of-range). Zero for ordinary clothing.
  double specular_glitch_probability = 0.0;

  static SurfaceProfile gray_jacket() { return {0.35, 0.0}; }
};

}  // namespace distscroll::sensors
