// Fail fixture for the network-surface rule: one virtual member function
// more than the core allows — a convenience spelling declared virtual
// instead of as a helper over the core.
namespace ppc {

class Network {
 public:
  virtual ~Network();
  virtual Status RegisterParty(const std::string& name) = 0;
  virtual bool HasParty(const std::string& name) const = 0;
  virtual Status SendOn(const std::string& session) = 0;
  virtual Result<Message> ReceiveOn(const std::string& session) = 0;
  virtual Status InjectFrameOn(const std::string& session) = 0;
  virtual void set_receive_timeout(int timeout) = 0;
  virtual int receive_timeout() const = 0;
  virtual size_t PendingCountOn(const std::string& session) const = 0;
  virtual ChannelStats StatsOn(const std::string& session) const = 0;
  virtual void ResetStats() = 0;
  virtual void AddTapOn(const std::string& session) = 0;
  virtual void PurgeSession(const std::string& session) = 0;
  virtual Status Send() = 0;  // EXPECT-LINT: network-surface
};

}  // namespace ppc
