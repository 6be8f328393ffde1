#include "net/reactor_pool.hpp"

namespace ricsa::net {

ReactorPool::ReactorPool(std::size_t n) {
  if (n == 0) n = 1;
  reactors_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reactors_.push_back(std::make_shared<Reactor>());
  }
}

ReactorPool::~ReactorPool() { stop(); }

void ReactorPool::resize(std::size_t n) {
  if (started_) return;
  if (n == 0) n = 1;
  while (reactors_.size() > n) reactors_.pop_back();
  while (reactors_.size() < n) {
    reactors_.push_back(std::make_shared<Reactor>());
  }
}

void ReactorPool::start() {
  if (started_) return;
  started_ = true;
  threads_.reserve(reactors_.size());
  for (const auto& reactor : reactors_) {
    threads_.emplace_back([reactor] { reactor->run(); });
  }
}

void ReactorPool::stop() {
  for (const auto& reactor : reactors_) reactor->stop();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

}  // namespace ricsa::net
