#include "src/services/catalog.h"

#include "src/guardian/system.h"
#include "src/sendprims/remote_call.h"

namespace guardians {

PortType CatalogPortType() {
  const ArgType kStr = ArgType::Of(TypeTag::kString);
  const ArgType kPort = ArgType::Of(TypeTag::kPortName);
  return PortType(
      "catalog",
      {MessageSig{"register_name", {kStr, kPort},
                  {"registered", "name_taken"}},
       MessageSig{"lookup", {kStr}, {"found", "unknown_name"}},
       MessageSig{"unregister", {kStr}, {"removed", "unknown_name"}},
       MessageSig{"list_names", {kStr}, {"names"}}});
}

PortType CatalogReplyType() {
  return PortType(
      "catalog_reply",
      {MessageSig{"registered", {}, {}},
       MessageSig{"name_taken", {ArgType::Of(TypeTag::kPortName)}, {}},
       MessageSig{"found", {ArgType::Of(TypeTag::kPortName)}, {}},
       MessageSig{"unknown_name", {}, {}},
       MessageSig{"removed", {}, {}},
       MessageSig{"names", {ArgType::Of(TypeTag::kArray)}, {}}});
}

Status CatalogGuardian::Setup(const ValueList& args) {
  (void)args;
  return InitCommon(/*recovering=*/false);
}

Status CatalogGuardian::Recover(const ValueList& args) {
  (void)args;
  return InitCommon(/*recovering=*/true);
}

Status CatalogGuardian::InitCommon(bool recovering) {
  log_ = OpenLog("names");
  if (recovering) {
    GUARDIANS_ASSIGN_OR_RETURN(auto records, log_->RecoverValues());
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& record : records) {
      GUARDIANS_ASSIGN_OR_RETURN(Value op, record.field("op"));
      GUARDIANS_ASSIGN_OR_RETURN(Value name, record.field("name"));
      if (op.string_value() == "register") {
        GUARDIANS_ASSIGN_OR_RETURN(Value port, record.field("port"));
        names_[name.string_value()] = port.port_value();
      } else {
        names_.erase(name.string_value());
      }
    }
  }
  AddPort(CatalogPortType(), /*capacity=*/256, /*provided=*/true);
  return OkStatus();
}

void CatalogGuardian::Main() {
  Port* requests = port(0);
  Counter* const served =
      runtime().system().metrics().counter("services.catalog.requests");
  for (;;) {
    auto received = Receive(requests, Micros::max());
    if (!received.ok()) {
      return;
    }
    served->Inc();
    HandleRequest(*received);
  }
}

void CatalogGuardian::HandleRequest(const Received& request) {
  auto reply = [&](const char* command, ValueList args) {
    if (!request.reply_to.IsNull()) {
      Status st = Send(request.reply_to, command, std::move(args));
      (void)st;
    }
  };

  if (request.command == "register_name") {
    const std::string& name = request.args[0].string_value();
    const PortName port = request.args[1].port_value();
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = names_.find(name);
      if (it != names_.end()) {
        if (it->second == port) {
          // Idempotent re-registration (a recovering guardian announcing
          // itself again) succeeds.
          reply("registered", {});
        } else {
          reply("name_taken", {Value::OfPort(it->second)});
        }
        return;
      }
      names_[name] = port;
    }
    Status st = log_->AppendValue(
        Value::Record({{"op", Value::Str("register")},
                       {"name", Value::Str(name)},
                       {"port", Value::OfPort(port)}}));
    (void)st;
    reply("registered", {});

  } else if (request.command == "lookup") {
    const std::string& name = request.args[0].string_value();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = names_.find(name);
    if (it == names_.end()) {
      reply("unknown_name", {});
    } else {
      reply("found", {Value::OfPort(it->second)});
    }

  } else if (request.command == "unregister") {
    const std::string& name = request.args[0].string_value();
    bool removed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      removed = names_.erase(name) > 0;
    }
    if (removed) {
      Status st = log_->AppendValue(
          Value::Record({{"op", Value::Str("unregister")},
                         {"name", Value::Str(name)}}));
      (void)st;
      reply("removed", {});
    } else {
      reply("unknown_name", {});
    }

  } else if (request.command == "list_names") {
    const std::string& prefix = request.args[0].string_value();
    std::vector<Value> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [name, port] : names_) {
        if (name.compare(0, prefix.size(), prefix) == 0) {
          out.push_back(Value::Str(name));
        }
      }
    }
    reply("names", {Value::Array(std::move(out))});
  }
}

size_t CatalogGuardian::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.size();
}

Result<PortName> CatalogLookup(Guardian& caller, const PortName& catalog,
                               const std::string& name, Micros timeout,
                               int attempts) {
  RemoteCallOptions options;
  options.timeout = timeout;
  options.max_attempts = attempts;  // lookup is read-only, retry freely
  GUARDIANS_ASSIGN_OR_RETURN(
      RemoteReply reply,
      RemoteCall(caller, catalog, "lookup", {Value::Str(name)},
                 CatalogReplyType(), options));
  if (reply.command == "unknown_name") {
    return Status(Code::kNotFound, "no port registered as '" + name + "'");
  }
  if (reply.command != "found") {
    return Status(Code::kUnreachable, reply.command);
  }
  return reply.args[0].port_value();
}

Status CatalogRegister(Guardian& caller, const PortName& catalog,
                       const std::string& name, const PortName& port,
                       Micros timeout) {
  RemoteCallOptions options;
  options.timeout = timeout;
  options.max_attempts = 3;  // idempotent for the same (name, port)
  GUARDIANS_ASSIGN_OR_RETURN(
      RemoteReply reply,
      RemoteCall(caller, catalog, "register_name",
                 {Value::Str(name), Value::OfPort(port)},
                 CatalogReplyType(), options));
  if (reply.command == "registered") {
    return OkStatus();
  }
  if (reply.command == "name_taken") {
    return Status(Code::kAlreadyExists, "name '" + name + "' is taken");
  }
  return Status(Code::kUnreachable, reply.command);
}

}  // namespace guardians
