#include "resource.hpp"

#include <cstdio>
#include <cstring>

namespace ran::obs {

MemorySample sample_process_memory() {
  MemorySample out;
  // stdio, not ifstream: this runs at every stage boundary and must not
  // allocate. /proc/self/status is a few hundred bytes.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return out;  // non-Linux: report zeros, keep going
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1)
      out.vm_rss_kb = kb;
    // VmHWM (peak RSS), not VmPeak: peak *virtual* size swings by ~64 MB
    // per glibc malloc arena — i.e. per worker thread — while touched
    // pages barely move, and the manifest diff should not have to absorb
    // an 18x "regression" that is really just address-space reservation.
    else if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1)
      out.vm_peak_kb = kb;
    // Scheduler counters of the reading thread (stage boundaries run on
    // the pipeline thread): the nonvoluntary count is preemption
    // pressure.
    else if (std::sscanf(line, "voluntary_ctxt_switches: %llu", &kb) == 1)
      out.voluntary_ctxt = kb;
    else if (std::sscanf(line, "nonvoluntary_ctxt_switches: %llu", &kb) ==
             1)
      out.nonvoluntary_ctxt = kb;
  }
  std::fclose(f);
  return out;
}

void ResourceProfiler::on_stage_begin(const std::string& name) {
  const auto sample = sample_process_memory();
  const std::lock_guard lock{mutex_};
  StageMemory stage;
  stage.name = name;
  stage.rss_begin_kb = sample.vm_rss_kb;
  stage.voluntary_ctxt_begin = sample.voluntary_ctxt;
  stage.nonvoluntary_ctxt_begin = sample.nonvoluntary_ctxt;
  stages_.push_back(std::move(stage));
}

void ResourceProfiler::on_stage_end(const std::string& name) {
  const auto sample = sample_process_memory();
  const std::lock_guard lock{mutex_};
  // Close the innermost open stage with this name (stages nest LIFO,
  // which the RAII StageTimer guarantees).
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    if (it->closed || it->name != name) continue;
    it->rss_end_kb = sample.vm_rss_kb;
    it->delta_kb = static_cast<std::int64_t>(sample.vm_rss_kb) -
                   static_cast<std::int64_t>(it->rss_begin_kb);
    // Cumulative counters only grow; clamp anyway so a zero read on a
    // platform without /proc can never wrap the delta.
    it->voluntary_ctxt_delta =
        sample.voluntary_ctxt >= it->voluntary_ctxt_begin
            ? sample.voluntary_ctxt - it->voluntary_ctxt_begin
            : 0;
    it->nonvoluntary_ctxt_delta =
        sample.nonvoluntary_ctxt >= it->nonvoluntary_ctxt_begin
            ? sample.nonvoluntary_ctxt - it->nonvoluntary_ctxt_begin
            : 0;
    it->closed = true;
    return;
  }
}

void ResourceProfiler::set_structure_bytes(const std::string& name,
                                           std::uint64_t bytes) {
  const std::lock_guard lock{mutex_};
  structure_bytes_[name] = bytes;
}

ResourceProfiler::Snapshot ResourceProfiler::snapshot() const {
  const auto sample = sample_process_memory();
  const std::lock_guard lock{mutex_};
  Snapshot out;
  out.stages = stages_;
  out.vm_peak_kb = sample.vm_peak_kb;
  out.vm_rss_kb = sample.vm_rss_kb;
  out.voluntary_ctxt = sample.voluntary_ctxt;
  out.nonvoluntary_ctxt = sample.nonvoluntary_ctxt;
  out.structure_bytes = structure_bytes_;
  return out;
}

}  // namespace ran::obs
