#include "comm/channel.h"

namespace vocab {

Channel::Channel(std::size_t capacity, std::chrono::milliseconds timeout,
                 transport::Transport* transport)
    : capacity_(capacity),
      timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout) {
  transport::Transport& backend =
      transport != nullptr ? *transport : transport::default_transport();
  impl_ = backend.make_mailbox(capacity, timeout_);
}

void Channel::set_abort_token(std::shared_ptr<AbortToken> token) {
  impl_->set_abort_token(std::move(token));
}

void Channel::send(std::string tag, Tensor payload) {
  impl_->send(std::move(tag), std::move(payload));
}

Message Channel::recv() { return impl_->recv(); }

Tensor Channel::recv_tag(const std::string& tag) { return impl_->recv_tag(tag); }

void Channel::clear() { impl_->clear(); }

std::size_t Channel::size() const { return impl_->size(); }

std::string Channel::describe() const { return impl_->describe(); }

}  // namespace vocab
