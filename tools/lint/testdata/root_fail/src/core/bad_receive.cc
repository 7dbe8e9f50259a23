// Fail fixture for the cancel-guarded-receive rule: receives outside
// src/net/ that lean on the defaulted cancel token, which no
// CancelSession or armed deadline could ever unwedge.
namespace ppc {

void AwaitPeer(Network* network) {
  (void)network->Receive("tp", "dh1", kSomeTopic);  // EXPECT-LINT: cancel-guarded-receive
  (void)network->ReceiveOn("s1", "tp", "dh1");  // EXPECT-LINT: cancel-guarded-receive
  // A call split over lines is judged by its whole argument list; commas
  // inside nested calls and string literals do not count.
  (void)network->ReceiveOn(  // EXPECT-LINT: cancel-guarded-receive
      Join("s", "1"), "tp",
      "dh1, topic, cancel");
}

}  // namespace ppc
