// Fail fixture: every repo lint rule firing where it should. Each
// violating line carries an EXPECT-LINT marker naming the rule the
// selftest requires to fire there (and only there).
#include <mutex>  // EXPECT-LINT: lock-primitives

namespace ppc {

class BadReactor {
 public:
  void OnReadable() {
    // A blocking receive on the loop thread stalls every connection, and
    // naming a cancel token does not make it any less blocking.
    (void)network_->ReceiveOn("s1", "tp", "dh1");  // EXPECT-LINT: receive-on-reactor
    (void)network_->Receive("tp", "dh1", kTopic, &token_);  // EXPECT-LINT: receive-on-reactor
  }

 private:
  std::mutex mu_;  // EXPECT-LINT: lock-primitives
  Network* network_ = nullptr;
  CancelToken token_;
};

}  // namespace ppc
