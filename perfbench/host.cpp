// Host and build fingerprint. CPU model and ISA flags come from CPUID, so
// the benchmark reads no file outside its checkout.
#include <cpuid.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstring>
#include <thread>

#include "bench.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

std::string cpu_brand() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000, nullptr);
  if (max_ext < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

std::string isa_flags() {
  unsigned int a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return "none";
  std::string out;
  const auto flag = [&out](bool on, const char* name) {
    if (!on) return;
    if (!out.empty()) out += ",";
    out += name;
  };
  flag(b & (1u << 5), "avx2");
  flag(b & (1u << 16), "avx512f");
  flag(c & (1u << 11), "avx512_vnni");
  flag(d & (1u << 24), "amx_tile");
  flag(d & (1u << 25), "amx_int8");
  flag(d & (1u << 22), "amx_bf16");
  return out.empty() ? "none" : out;
}

}  // namespace

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void release_freed_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

std::vector<std::string> fingerprint(const Options& opt) {
  return {
      "host.nproc " + std::to_string(host_cpus()),
      "host.cpu " + cpu_brand(),
      "host.isa " + isa_flags(),
      std::string("host.int8_kernel ") +
          (apm::gemm_q8_simd_enabled() ? "vnni" : "scalar"),
      std::string("build.compiler ") + PERFBENCH_COMPILER,
      std::string("build.type ") + PERFBENCH_BUILD_TYPE,
      std::string("build.flags ") + PERFBENCH_FLAGS,
      "build.commit " + opt.commit,
  };
}

}  // namespace perfbench
