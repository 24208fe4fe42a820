#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "support/check.hpp"

namespace apm {
namespace {

constexpr char kMagic[4] = {'A', 'P', 'M', 'N'};
// v2 appends NetConfig::action_override (policy heads narrower than
// H*W, e.g. Connect4's 7 columns); v1 checkpoints load with override 0.
constexpr std::uint32_t kVersion = 2;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  APM_CHECK_MSG(in.good(), "truncated checkpoint");
  return value;
}

void write_config(std::ostream& out, const NetConfig& cfg) {
  for (int v : {cfg.in_channels, cfg.height, cfg.width, cfg.trunk1,
                cfg.trunk2, cfg.trunk3, cfg.policy_channels,
                cfg.value_channels, cfg.value_hidden,
                cfg.action_override}) {
    write_pod<std::int32_t>(out, v);
  }
}

NetConfig read_config(std::istream& in, std::uint32_t version) {
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
  cfg.action_override =
      version >= 2 ? read_pod<std::int32_t>(in) : 0;
  return cfg;
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

void save_net(PolicyValueNet& net, std::ostream& out) {
  out.write(kMagic, sizeof kMagic);
  write_pod(out, kVersion);
  write_config(out, net.config());
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
  const NetConfig cfg = read_config(in, read_header(in));
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

void load_net_file(PolicyValueNet& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  APM_CHECK_MSG(in.is_open(), "cannot open checkpoint for reading");
  load_net(net, in);
}

NetConfig peek_net_config(std::istream& in) {
  return read_config(in, read_header(in));
}

}  // namespace apm
