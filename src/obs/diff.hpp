// Manifest / benchmark diffing: the regression gate that makes the
// observability artifacts actionable in CI. Two runs of the same study
// must produce byte-identical deterministic content (counters, summary
// statistics, provenance, topology counts); wall-clock timings, resource
// samples, and volatile metrics are expected to move and are compared
// within a tolerance instead.
//
// Classification is namespace-driven and matches what RunManifest emits:
//   - any path under "volatile." or "resources."  -> tolerance compare
//   - any path whose leaf is "wall_ms"            -> tolerance compare
//   - everything else                             -> exact (numbers by
//     raw source token, i.e. byte equality)
//
// diff_bench() applies the same report machinery to two google-benchmark
// JSON exports, matching benchmarks by name and gating on relative
// real_time slowdown — but only when both exports come from the same host
// class (context.num_cpus, build_type, library_build_type). Otherwise the
// timings are not compared and the report is incomparable, never a pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netbase/json.hpp"

namespace ran::obs {

struct DiffOptions {
  /// Volatile numerics pass when
  ///   |a - b| <= abs_tolerance + rel_tolerance * max(|a|, |b|).
  /// Defaults are loose on purpose: timings on a shared CI box jitter,
  /// and the gate's job is catching structural drift, not scheduling
  /// noise.
  double rel_tolerance = 0.5;
  double abs_tolerance = 64.0;
};

struct BenchDiffOptions {
  /// A benchmark regresses when
  ///   after.real_time > before.real_time * (1 + slowdown_threshold).
  /// Speedups never fail the gate.
  double slowdown_threshold = 0.35;
  /// ECMAScript regex over benchmark names; non-matching benchmarks are
  /// skipped on both sides. Empty = compare everything. Lets a gate pin
  /// a stable kernel subset while the suite grows new benchmarks (which
  /// would otherwise read as one-side-only deterministic drift).
  std::string name_filter;
};

/// One observed difference between the two documents.
struct DiffEntry {
  enum class Kind {
    kDeterministic,  ///< exact-compare path: any difference fails the gate
    kVolatile,       ///< tolerance-compare path
    kHostClass,      ///< diff_bench: a host-class context field differs
  };

  std::string path;  ///< dotted path, arrays indexed ("stages.children[2]")
  Kind kind = Kind::kDeterministic;
  std::string left;   ///< rendered value, or "<absent>"
  std::string right;  ///< rendered value, or "<absent>"
  /// Volatile entries only: the difference stayed inside tolerance (it is
  /// recorded for the report but does not fail the gate).
  bool within_tolerance = false;
};

struct DiffReport {
  std::vector<DiffEntry> differences;
  std::uint64_t paths_compared = 0;
  std::uint64_t deterministic_differences = 0;
  std::uint64_t volatile_out_of_tolerance = 0;
  std::uint64_t host_class_differences = 0;

  /// False when diff_bench() found the two exports on different host
  /// classes: nothing else was compared.
  [[nodiscard]] bool comparable() const { return host_class_differences == 0; }
  /// The CI verdict: comparable, no deterministic drift and all volatile
  /// movement within tolerance.
  [[nodiscard]] bool gate_ok() const {
    return comparable() && deterministic_differences == 0 &&
           volatile_out_of_tolerance == 0;
  }

  /// Human-readable multi-line summary (stable ordering).
  [[nodiscard]] std::string text() const;
  /// Machine-readable report through the deterministic JsonWriter.
  [[nodiscard]] std::string to_json() const;
};

/// Diffs two parsed run manifests under the namespace rules above.
[[nodiscard]] DiffReport diff_manifests(const net::JsonValue& before,
                                        const net::JsonValue& after,
                                        const DiffOptions& options = {});

/// Diffs two google-benchmark JSON exports. First the host class: any
/// difference in context.num_cpus, context.build_type or
/// context.library_build_type (absent counts as a value) is recorded as a
/// kHostClass entry and ends the comparison. Otherwise benchmarks are
/// matched by "name"; a benchmark present on one side only is a
/// deterministic difference, and real_time slowdowns beyond the threshold
/// fail the gate. The rest of the context is not compared.
[[nodiscard]] DiffReport diff_bench(const net::JsonValue& before,
                                    const net::JsonValue& after,
                                    const BenchDiffOptions& options = {});

}  // namespace ran::obs
