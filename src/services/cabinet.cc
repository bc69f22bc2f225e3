#include "src/services/cabinet.h"

#include "src/guardian/system.h"
#include "src/wire/value_codec.h"

namespace guardians {

PortType CabinetPortType() {
  return PortType(
      "cabinet",
      {MessageSig{"file_doc", {ArgType::AbstractOf(kDocumentTypeName)},
                  {"filed"}},
       MessageSig{"fetch", {ArgType::Of(TypeTag::kToken)},
                  {"doc_is", "bad_token"}},
       MessageSig{"find_title", {ArgType::Of(TypeTag::kString)},
                  {"filed", "unknown_title"}},
       MessageSig{"doc_count", {}, {"doc_count_is"}}});
}

PortType CabinetReplyType() {
  return PortType(
      "cabinet_reply",
      {MessageSig{"filed", {ArgType::Of(TypeTag::kToken)}, {}},
       MessageSig{"doc_is", {ArgType::AbstractOf(kDocumentTypeName)}, {}},
       MessageSig{"bad_token", {}, {}},
       MessageSig{"unknown_title", {}, {}},
       MessageSig{"doc_count_is", {ArgType::Of(TypeTag::kInt)}, {}}});
}

Status CabinetGuardian::Setup(const ValueList& args) {
  (void)args;
  return InitCommon(/*recovering=*/false);
}

Status CabinetGuardian::Recover(const ValueList& args) {
  (void)args;
  return InitCommon(/*recovering=*/true);
}

Status CabinetGuardian::InitCommon(bool recovering) {
  // The cabinet must be able to rebuild documents from their logged
  // external reps at recovery time.
  if (!runtime().transmit_registry().Knows(kDocumentTypeName)) {
    Status st = runtime().transmit_registry().Register(kDocumentTypeName,
                                                       DocumentDecoder());
    (void)st;
  }
  log_ = OpenLog("documents");
  if (recovering) {
    GUARDIANS_ASSIGN_OR_RETURN(auto recovery, log_->Recover());
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& record : recovery.records) {
      // Each record is the document's external rep.
      GUARDIANS_ASSIGN_OR_RETURN(Value external,
                                 DecodeValueFromBytes(record));
      auto doc = DocumentDecoder()(external);
      if (doc.ok()) {
        docs_.push_back(std::static_pointer_cast<const Document>(*doc));
      }
    }
  }
  AddPort(CabinetPortType(), /*capacity=*/256, /*provided=*/true);
  return OkStatus();
}

void CabinetGuardian::Main() {
  Port* requests = port(0);
  Counter* const served =
      runtime().system().metrics().counter("services.cabinet.requests");
  for (;;) {
    auto received = Receive(requests, Micros::max());
    if (!received.ok()) {
      return;
    }
    served->Inc();
    HandleRequest(*received);
  }
}

void CabinetGuardian::HandleRequest(const Received& request) {
  auto reply = [&](const char* command, ValueList args) {
    if (!request.reply_to.IsNull()) {
      Status st = Send(request.reply_to, command, std::move(args));
      (void)st;
    }
  };

  if (request.command == "file_doc") {
    auto doc = std::static_pointer_cast<const Document>(
        request.args[0].abstract_value());
    // Permanence first: log the external rep, then file.
    auto external = doc->Encode();
    if (!external.ok()) {
      return;  // not filable; requester times out
    }
    auto bytes = EncodeValueToBytes(*external);
    if (!bytes.ok() || !log_->Append(*bytes).ok()) {
      return;
    }
    size_t index;
    {
      std::lock_guard<std::mutex> lock(mu_);
      docs_.push_back(doc);
      index = docs_.size() - 1;
    }
    reply("filed", {Value::OfToken(Seal(index))});

  } else if (request.command == "fetch") {
    auto index = Unseal(request.args[0].token_value());
    std::shared_ptr<const Document> doc;
    if (index.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (*index < docs_.size()) {
        doc = docs_[*index];
      }
    }
    if (doc == nullptr) {
      reply("bad_token", {});
    } else {
      reply("doc_is", {Value::Abstract(doc)});
    }

  } else if (request.command == "find_title") {
    const std::string& title = request.args[0].string_value();
    // The recovery path for stale tokens: look the document up by content
    // and obtain a fresh token from the current incarnation.
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < docs_.size(); ++i) {
      if (docs_[i]->title() == title) {
        reply("filed", {Value::OfToken(Seal(i))});
        return;
      }
    }
    reply("unknown_title", {});

  } else if (request.command == "doc_count") {
    std::lock_guard<std::mutex> lock(mu_);
    reply("doc_count_is", {Value::Int(static_cast<int64_t>(docs_.size()))});
  }
}

size_t CabinetGuardian::DocCountForTesting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return docs_.size();
}

}  // namespace guardians
