#pragma once
// Binary (de)serialization of PolicyValueNet weights.
//
// Format: magic "APMN" | version u32 | 10 × i32 config fields (v1: 9) |
// param count u32 | per param: numel u64 + raw float32 data.
// Little-endian, host order (checkpoints are host-local artifacts).

#include <istream>
#include <ostream>
#include <string>

#include "nn/policy_value_net.hpp"
#include "support/check.hpp"

namespace apm {

void save_net(PolicyValueNet& net, std::ostream& out);
void save_net_file(PolicyValueNet& net, const std::string& path);

// Loads into an existing net; the stored config must match net.config().
void load_net(PolicyValueNet& net, std::istream& in);

// Reads just the config from a checkpoint (to construct a matching net).
NetConfig peek_net_config(std::istream& in);

// The NetConfig header both checkpoint formats (APMN, APMQ) share: ten i32
// fields, of which APMN v1 omits action_override. read_net_config checks
// every field before returning — channel counts, board sides and
// value_hidden in [1, 65536], action_override in [0, 65536], and every
// layer's weight and per-sample activation count within int — and aborts
// with the field's name otherwise, so no loader sizes anything from an
// unchecked header.
void write_net_config(std::ostream& out, const NetConfig& cfg);
NetConfig read_net_config(std::istream& in, bool has_action_override = true);

// Host-order POD I/O shared by both formats; a short read aborts.
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

}  // namespace apm
