#include "nn/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "support/check.hpp"

namespace apm {
namespace {

constexpr char kMagic[4] = {'A', 'P', 'M', 'N'};
// v2 appends NetConfig::action_override (policy heads narrower than
// H*W, e.g. Connect4's 7 columns); v1 checkpoints load with override 0.
constexpr std::uint32_t kVersion = 2;

// Aborts, naming the first bad field, unless every count is in [1, 2^16]
// (action_override in [0, 2^16]) and every layer size fits in int. The
// sizes are checked in order, so each product is of factors already
// bounded (H·W and C·H·W within int) and none overflows int64.
void check_net_config(const NetConfig& cfg) {
  using Field = std::pair<std::int64_t, const char*>;
  const Field counts[] = {
      {cfg.in_channels, "checkpoint in_channels out of range"},
      {cfg.height, "checkpoint height out of range"},
      {cfg.width, "checkpoint width out of range"},
      {cfg.trunk1, "checkpoint trunk1 out of range"},
      {cfg.trunk2, "checkpoint trunk2 out of range"},
      {cfg.trunk3, "checkpoint trunk3 out of range"},
      {cfg.policy_channels, "checkpoint policy_channels out of range"},
      {cfg.value_channels, "checkpoint value_channels out of range"},
      {cfg.value_hidden, "checkpoint value_hidden out of range"}};
  for (const auto& [v, what] : counts) {
    APM_CHECK_MSG(v >= 1 && v <= (1 << 16), what);
  }
  APM_CHECK_MSG(cfg.action_override >= 0 && cfg.action_override <= (1 << 16),
                "checkpoint action_override out of range");
  const auto fits = [](std::int64_t v, const char* what) {
    APM_CHECK_MSG(v <= std::numeric_limits<int>::max(), what);
  };
  const std::int64_t hw = std::int64_t{cfg.height} * cfg.width;
  fits(hw, "checkpoint height*width overflows int");
  const std::int64_t channels =
      std::max({cfg.in_channels, cfg.trunk1, cfg.trunk2, cfg.trunk3,
                cfg.policy_channels, cfg.value_channels});
  fits(channels * hw, "checkpoint activation size overflows int");
  const std::int64_t trunk = std::max({cfg.trunk1, cfg.trunk2, cfg.trunk3});
  fits(channels * trunk * 9, "checkpoint conv weight size overflows int");
  const std::int64_t actions =
      cfg.action_override > 0 ? cfg.action_override : hw;
  fits(cfg.policy_channels * hw * actions,
       "checkpoint fc_p weight size overflows int");
  fits(cfg.value_channels * hw * cfg.value_hidden,
       "checkpoint fc_v1 weight size overflows int");
}

// Reads and checks the magic and version; returns the version.
std::uint32_t read_header(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof magic);
  APM_CHECK_MSG(in.good() && std::memcmp(magic, kMagic, 4) == 0,
                "bad checkpoint magic");
  const auto version = read_pod<std::uint32_t>(in);
  APM_CHECK_MSG(version >= 1 && version <= kVersion,
                "unsupported checkpoint version");
  return version;
}

}  // namespace

void write_net_config(std::ostream& out, const NetConfig& cfg) {
  for (int v : {cfg.in_channels, cfg.height, cfg.width, cfg.trunk1,
                cfg.trunk2, cfg.trunk3, cfg.policy_channels,
                cfg.value_channels, cfg.value_hidden,
                cfg.action_override}) {
    write_pod<std::int32_t>(out, v);
  }
}

NetConfig read_net_config(std::istream& in, bool has_action_override) {
  NetConfig cfg;
  cfg.in_channels = read_pod<std::int32_t>(in);
  cfg.height = read_pod<std::int32_t>(in);
  cfg.width = read_pod<std::int32_t>(in);
  cfg.trunk1 = read_pod<std::int32_t>(in);
  cfg.trunk2 = read_pod<std::int32_t>(in);
  cfg.trunk3 = read_pod<std::int32_t>(in);
  cfg.policy_channels = read_pod<std::int32_t>(in);
  cfg.value_channels = read_pod<std::int32_t>(in);
  cfg.value_hidden = read_pod<std::int32_t>(in);
  cfg.action_override = has_action_override ? read_pod<std::int32_t>(in) : 0;
  check_net_config(cfg);
  return cfg;
}

void save_net(PolicyValueNet& net, std::ostream& out) {
  out.write(kMagic, sizeof kMagic);
  write_pod(out, kVersion);
  write_net_config(out, net.config());
  const auto params = net.params();
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(params.size()));
  for (Param* p : params) {
    write_pod<std::uint64_t>(out, p->numel());
    out.write(reinterpret_cast<const char*>(p->value().data()),
              static_cast<std::streamsize>(p->numel() * sizeof(float)));
  }
  APM_CHECK_MSG(out.good(), "checkpoint write failed");
}

void save_net_file(PolicyValueNet& net, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  APM_CHECK_MSG(out.is_open(), "cannot open checkpoint for writing");
  save_net(net, out);
}

void load_net(PolicyValueNet& net, std::istream& in) {
  const NetConfig cfg = read_net_config(in, read_header(in) >= 2);
  APM_CHECK_MSG(cfg == net.config(), "checkpoint config mismatch");
  const auto count = read_pod<std::uint32_t>(in);
  const auto params = net.params();
  APM_CHECK_MSG(count == params.size(), "checkpoint param count mismatch");
  for (Param* p : params) {
    const auto numel = read_pod<std::uint64_t>(in);
    APM_CHECK_MSG(numel == p->numel(), "checkpoint param size mismatch");
    in.read(reinterpret_cast<char*>(p->mutable_value().data()),
            static_cast<std::streamsize>(numel * sizeof(float)));
    APM_CHECK_MSG(in.good(), "truncated checkpoint");
  }
}

NetConfig peek_net_config(std::istream& in) {
  return read_net_config(in, read_header(in) >= 2);
}

}  // namespace apm
