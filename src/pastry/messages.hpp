#pragma once

// Wire-level Pastry messages.
//
// Applications (Scribe, the RBAY query plane) talk in AppMessage subclasses;
// Pastry wraps them in RouteEnvelope for key-based routing or DirectEnvelope
// for point-to-point sends between nodes that already know each other (tree
// parent/child links).  Join uses its own envelope pair.

#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "pastry/routing_table.hpp"

namespace rbay::pastry {

/// Routing scope: Global crosses site boundaries, Site implements RBAY's
/// administrative isolation (§III.E) — the message converges within the
/// sender's site.
enum class Scope { Global, Site };

/// An application name, interned once per process.  Envelopes carry this
/// handle instead of the name: every hop dispatches through a per-node
/// vector indexed by index(), and wire size still counts the name's bytes.
/// Converts implicitly from a name, so callers may pass the string; hot
/// senders keep an AppId to intern only once.
class AppId {
 public:
  AppId(const std::string& name);  // NOLINT(google-explicit-constructor): interns
  AppId(const char* name) : AppId(std::string(name)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::size_t index() const { return entry_->index; }
  [[nodiscard]] const std::string& name() const { return entry_->name; }

 private:
  struct Entry {
    std::size_t index;  // dense across the process, in interning order
    std::string name;
  };
  const Entry* entry_;
};

/// Base class for application-level messages carried over Pastry.
struct AppMessage {
  virtual ~AppMessage() = default;
  [[nodiscard]] virtual std::size_t wire_size() const = 0;
  [[nodiscard]] virtual const char* type_name() const = 0;
  /// Deep copy so the link conditioner can duplicate routed/direct
  /// envelopes.  nullptr (the default) makes the envelope non-clonable —
  /// such messages are delivered once even under a duplicate storm.
  [[nodiscard]] virtual std::unique_ptr<AppMessage> clone_msg() const { return nullptr; }
};

struct RouteEnvelope final : net::Payload {
  explicit RouteEnvelope(AppId a) : app(a) {}

  NodeId key;
  Scope scope = Scope::Global;
  int hops = 0;
  AppId app;
  std::unique_ptr<AppMessage> msg;

  [[nodiscard]] std::size_t wire_size() const override {
    return 16 /*key*/ + 8 /*header*/ + app.name().size() + (msg ? msg->wire_size() : 0);
  }
  [[nodiscard]] const char* type_name() const override { return "RouteEnvelope"; }
  [[nodiscard]] std::unique_ptr<net::Payload> clone_payload() const override {
    auto inner = msg ? msg->clone_msg() : nullptr;
    if (msg && !inner) return nullptr;  // non-clonable app message
    auto copy = std::make_unique<RouteEnvelope>(app);
    copy->key = key;
    copy->scope = scope;
    copy->hops = hops;
    copy->msg = std::move(inner);
    return copy;
  }
};

struct DirectEnvelope final : net::Payload {
  explicit DirectEnvelope(AppId a) : app(a) {}

  NodeRef sender;
  AppId app;
  std::unique_ptr<AppMessage> msg;

  [[nodiscard]] std::size_t wire_size() const override {
    return 24 /*sender*/ + app.name().size() + (msg ? msg->wire_size() : 0);
  }
  [[nodiscard]] const char* type_name() const override { return "DirectEnvelope"; }
  [[nodiscard]] std::unique_ptr<net::Payload> clone_payload() const override {
    auto inner = msg ? msg->clone_msg() : nullptr;
    if (msg && !inner) return nullptr;  // non-clonable app message
    auto copy = std::make_unique<DirectEnvelope>(app);
    copy->sender = sender;
    copy->msg = std::move(inner);
    return copy;
  }
};

/// Routed toward the joiner's NodeId; every hop appends routing state.
struct JoinRequest final : net::Payload {
  NodeRef joiner;
  int hops = 0;
  std::vector<NodeRef> collected;

  [[nodiscard]] std::size_t wire_size() const override { return 28 + collected.size() * 24; }
  [[nodiscard]] const char* type_name() const override { return "JoinRequest"; }
  [[nodiscard]] std::unique_ptr<net::Payload> clone_payload() const override {
    return std::make_unique<JoinRequest>(*this);
  }
};

/// Sent by the joiner's root back to the joiner with accumulated state.
struct JoinReply final : net::Payload {
  std::vector<NodeRef> state;

  [[nodiscard]] std::size_t wire_size() const override { return 8 + state.size() * 24; }
  [[nodiscard]] const char* type_name() const override { return "JoinReply"; }
  [[nodiscard]] std::unique_ptr<net::Payload> clone_payload() const override {
    return std::make_unique<JoinReply>(*this);
  }
};

/// Joiner announces itself to the nodes it learned about, so they can add
/// it to their own routing state.
struct StateAnnounce final : net::Payload {
  NodeRef node;

  [[nodiscard]] std::size_t wire_size() const override { return 24; }
  [[nodiscard]] const char* type_name() const override { return "StateAnnounce"; }
  [[nodiscard]] std::unique_ptr<net::Payload> clone_payload() const override {
    return std::make_unique<StateAnnounce>(*this);
  }
};

}  // namespace rbay::pastry
