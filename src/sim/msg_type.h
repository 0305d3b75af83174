// Dense message-type registry: every RPC request/response struct gets a
// small integer MsgTypeId the first time the transport sees it, assigned
// through a function-local static in MsgTypeIdOf<T>(). Handler dispatch and
// the per-type RPC meters index flat arrays with it — no std::type_index, no
// RTTI hashing on the hot path.
//
// Determinism: ids are assigned in first-use order, which is stable for a
// given binary + workload but NOT across builds — so ids never feed the
// trace hash or any ordered iteration. What does feed the determinism
// digest is the registered type's RTTI *name* (Itanium-ABI-stable across
// gcc/clang builds): the registry captures the exact bytes MixTrace hashed
// before this registry existed, keeping golden schedule hashes byte-
// identical (tests/schedule_hash_test.cc).
//
// The registry also interns the per-type span labels ("rpc:<name>",
// "handler:<name>", "call:<name>") that the rpc layer and Host used to
// rebuild with a string concatenation on every traced call.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <typeinfo>

namespace cfs::sim {

/// Messages name themselves (kRpcName) for metrics and span labels; anything
/// without one falls back to the (mangled, stable-within-a-build) RTTI name.
template <typename T>
concept HasMsgName = requires {
  { T::kRpcName } -> std::convertible_to<const char*>;
};

template <typename T>
const char* MsgNameOf() {
  if constexpr (HasMsgName<T>) {
    return T::kRpcName;
  } else {
    return typeid(T).name();
  }
}

using MsgTypeId = uint32_t;

class MsgTypeRegistry {
 public:
  struct Info {
    const char* name;        // kRpcName (metric key) or RTTI fallback
    const char* trace_name;  // typeid(T).name(): the determinism-digest bytes
    size_t trace_len;
    std::string span_rpc;      // "rpc:<name>"     (Channel leg span)
    std::string span_handler;  // "handler:<name>" (Host handler span)
    std::string span_call;     // "call:<name>"    (service logical-call span)
  };

  static MsgTypeRegistry& Instance() {
    static MsgTypeRegistry r;
    return r;
  }

  MsgTypeId Register(const char* name, const std::type_info& ti) {
    const char* tn = ti.name();
    infos_.push_back(Info{name, tn, std::strlen(tn), std::string("rpc:") + name,
                          std::string("handler:") + name, std::string("call:") + name});
    return static_cast<MsgTypeId>(infos_.size() - 1);
  }

  /// Stable reference (deque storage never relocates registered entries).
  const Info& info(MsgTypeId id) const { return infos_[id]; }
  size_t size() const { return infos_.size(); }

 private:
  MsgTypeRegistry() = default;
  std::deque<Info> infos_;
};

/// The dense id of message type T, assigned on first use. Process-global:
/// every Network/Host in the process shares one id space (benches construct
/// several simulations per run).
template <typename T>
MsgTypeId MsgTypeIdOf() {
  static const MsgTypeId id =
      MsgTypeRegistry::Instance().Register(MsgNameOf<T>(), typeid(T));
  return id;
}

/// Interned span labels: one allocation per *type* at registration, shared
/// by every call (obs::Tracer::BeginSpan takes a string_view).
template <typename T>
const std::string& MsgSpanRpc() {
  return MsgTypeRegistry::Instance().info(MsgTypeIdOf<T>()).span_rpc;
}
template <typename T>
const std::string& MsgSpanHandler() {
  return MsgTypeRegistry::Instance().info(MsgTypeIdOf<T>()).span_handler;
}
template <typename T>
const std::string& MsgSpanCall() {
  return MsgTypeRegistry::Instance().info(MsgTypeIdOf<T>()).span_call;
}

}  // namespace cfs::sim
