// Pass fixture for the network-surface rule: a core of exactly the
// allowed number of virtual member functions. The destructor does not
// count, "virtual" in this comment or in a string does not count, and
// neither do non-virtual helpers or a wrapper's overrides.
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

  Status Send() { return SendOn(""); }
  const char* note() const { return "virtual Status Send()"; }
};

class ForwardingNetwork : public Network {
 public:
  void ResetStats() override {}
};

}  // namespace ppc
