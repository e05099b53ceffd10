// Package kernel implements the simulated monolithic kernel substrate that
// replaces the patched Linux 2.6.28 of the paper. It provides:
//
//   - a deterministic symbol table of ~3800 core-kernel functions spread
//     across realistic subsystems (the orthonormal basis of the signature
//     vector space);
//   - syscall-level operations whose call paths traverse the symbol table
//     the way real kernel code paths do;
//   - an execution engine with a virtual nanosecond clock, per-CPU contexts,
//     and pluggable instrumentation backends (vanilla / Ftrace / Fmeter);
//   - a loadable-module registry whose functions are deliberately *excluded*
//     from the instrumented symbol table (paper §3): modules are only
//     visible through the core-kernel functions they call.
package kernel

import (
	"fmt"
	"sort"
)

// FuncID identifies a core-kernel function: it is the function's index in
// the symbol table. The paper identifies functions by start address because
// names can collide (duplicate statics); we keep both, and the address is
// derived deterministically so signatures are stable across "reboots" of the
// simulator, mirroring the paper's observation that kernel symbols load at
// the same address across reboots.
type FuncID int32

// InvalidFunc is the zero-value-adjacent sentinel for "no function".
const InvalidFunc FuncID = -1

// Subsystem labels the region of the kernel a function belongs to. It is
// used to build realistic per-workload call profiles and for diagnostics; it
// plays no role in signature construction (signatures see only counts).
type Subsystem int

// Subsystems of the simulated kernel. Start at 1 so the zero value is
// conspicuous.
const (
	SubSched Subsystem = iota + 1
	SubMM
	SubSlab
	SubPageCache
	SubPageFault
	SubVFS
	SubExt3
	SubBlock
	SubNetCore
	SubTCP
	SubIPv4
	SubSocket
	SubSkbuff
	SubNAPI
	SubIRQ
	SubSoftirq
	SubTimer
	SubLocking
	SubSignal
	SubPipe
	SubSelectPoll
	SubIPC
	SubForkExec
	SubCrypto
	SubWorkqueue
	SubTTY
	SubDMA
	SubDebugFS
	SubKmod
	SubMisc

	numSubsystems = int(SubMisc)
)

var subsystemNames = map[Subsystem]string{
	SubSched:      "sched",
	SubMM:         "mm",
	SubSlab:       "slab",
	SubPageCache:  "pagecache",
	SubPageFault:  "pagefault",
	SubVFS:        "vfs",
	SubExt3:       "ext3",
	SubBlock:      "block",
	SubNetCore:    "netcore",
	SubTCP:        "tcp",
	SubIPv4:       "ipv4",
	SubSocket:     "socket",
	SubSkbuff:     "skbuff",
	SubNAPI:       "napi",
	SubIRQ:        "irq",
	SubSoftirq:    "softirq",
	SubTimer:      "timer",
	SubLocking:    "locking",
	SubSignal:     "signal",
	SubPipe:       "pipe",
	SubSelectPoll: "selectpoll",
	SubIPC:        "ipc",
	SubForkExec:   "forkexec",
	SubCrypto:     "crypto",
	SubWorkqueue:  "workqueue",
	SubTTY:        "tty",
	SubDMA:        "dma",
	SubDebugFS:    "debugfs",
	SubKmod:       "kmod",
	SubMisc:       "misc",
}

// String returns the short subsystem name.
func (s Subsystem) String() string {
	if n, ok := subsystemNames[s]; ok {
		return n
	}
	return fmt.Sprintf("subsystem(%d)", int(s))
}

// Symbol describes one core-kernel function.
type Symbol struct {
	ID        FuncID
	Name      string
	Addr      uint64 // deterministic start address, the paper's identifier
	Subsystem Subsystem
}

// textBase is the simulated kernel text segment base; addresses grow from
// here in deterministic 16-byte-aligned increments.
const textBase uint64 = 0xffffffff81000000

// hotFunctions is the curated set of named functions that appear on the
// simulated call paths. They are the "hot set"; the remainder of the table
// is a generated cold tail that only background/boot activity touches.
// Names follow Linux 2.6-era conventions.
var hotFunctions = map[Subsystem][]string{
	SubSched: {
		"schedule", "__schedule", "pick_next_task_fair", "put_prev_task_fair",
		"enqueue_task_fair", "dequeue_task_fair", "update_curr",
		"check_preempt_wakeup", "try_to_wake_up", "wake_up_process",
		"scheduler_tick", "sched_clock", "context_switch", "finish_task_switch",
		"preempt_schedule", "cond_resched", "yield_task_fair", "sched_yield_op",
		"load_balance", "idle_balance", "set_task_cpu", "resched_task",
	},
	SubMM: {
		"do_mmap_pgoff", "mmap_region", "do_munmap", "vma_merge", "split_vma",
		"find_vma", "find_vma_prev", "anon_vma_prepare", "vm_normal_page",
		"get_user_pages", "follow_page", "do_brk", "expand_stack",
		"copy_page_range", "free_pgtables", "unmap_vmas", "zap_pte_range",
		"mprotect_fixup", "vm_stat_account",
	},
	SubSlab: {
		"kmalloc", "__kmalloc", "kfree", "kmem_cache_alloc", "kmem_cache_free",
		"cache_alloc_refill", "cache_flusharray", "slab_destroy",
		"kmem_cache_alloc_node", "kzalloc_op", "__alloc_pages_internal",
		"get_page_from_freelist", "free_hot_cold_page", "buffered_rmqueue",
		"zone_watermark_ok",
	},
	SubPageCache: {
		"find_get_page", "find_lock_page", "add_to_page_cache_lru",
		"page_cache_readahead", "do_generic_file_read", "generic_file_aio_read",
		"generic_file_aio_write", "generic_perform_write", "grab_cache_page",
		"mark_page_accessed", "page_waitqueue", "unlock_page", "lock_page",
		"wait_on_page_bit", "balance_dirty_pages_ratelimited",
		"write_cache_pages", "__set_page_dirty_buffers", "release_pages",
	},
	SubPageFault: {
		"do_page_fault", "handle_mm_fault", "handle_pte_fault", "do_anonymous_page",
		"do_linear_fault", "__do_fault", "do_wp_page", "do_swap_page",
		"pte_alloc_one", "pmd_alloc_op", "flush_tlb_page", "page_add_new_anon_rmap",
		"lru_cache_add_active", "bad_area_nosemaphore",
	},
	SubVFS: {
		"vfs_read", "vfs_write", "vfs_stat", "vfs_fstat", "vfs_lstat",
		"do_sys_open", "do_filp_open", "get_unused_fd_flags", "fd_install",
		"filp_close", "fput", "fget", "fget_light", "sys_read_op", "sys_write_op",
		"rw_verify_area", "do_sync_read", "do_sync_write", "generic_file_llseek",
		"dentry_open", "path_lookup", "do_path_lookup", "__link_path_walk",
		"do_lookup", "d_lookup", "d_alloc", "dput", "mntput_no_expire",
		"cp_new_stat", "generic_fillattr", "vfs_getattr", "touch_atime",
		"file_update_time", "vfs_fsync_op", "do_fsync", "generic_file_open",
		"may_open", "permission_op", "exec_permission_lite", "vfs_unlink_op",
		"vfs_mkdir_op", "vfs_readdir", "filldir64",
	},
	SubExt3: {
		"ext3_readpage", "ext3_writepage", "ext3_write_begin", "ext3_write_end",
		"ext3_get_block", "ext3_get_blocks_handle", "ext3_new_blocks",
		"ext3_free_blocks", "ext3_journal_start_sb", "__ext3_journal_stop",
		"ext3_mark_inode_dirty", "ext3_dirty_inode", "ext3_lookup",
		"ext3_create_op", "ext3_unlink_op", "ext3_mkdir_op", "ext3_readdir",
		"ext3_sync_file", "journal_add_journal_head", "journal_dirty_metadata",
		"journal_commit_transaction", "journal_get_write_access",
		"ext3_block_to_path", "ext3_find_entry", "ext3_add_entry",
	},
	SubBlock: {
		"generic_make_request", "submit_bio", "__make_request", "elv_merge",
		"elv_insert", "blk_plug_device", "blk_unplug_op", "__generic_unplug_device",
		"blk_complete_request", "end_that_request_first", "bio_alloc",
		"bio_put", "bio_endio", "get_request", "blk_rq_map_sg",
		"scsi_dispatch_cmd_op", "scsi_done_op", "disk_stat_add",
	},
	SubNetCore: {
		"dev_queue_xmit", "dev_hard_start_xmit", "netif_receive_skb",
		"netif_rx_op", "net_rx_action", "process_backlog", "__netif_schedule",
		"dev_kfree_skb_any", "eth_type_trans", "neigh_resolve_output",
		"dst_release", "netdev_pick_tx", "qdisc_restart", "pfifo_fast_enqueue",
		"pfifo_fast_dequeue", "net_tx_action", "skb_checksum_help",
	},
	SubTCP: {
		"tcp_sendmsg", "tcp_recvmsg", "tcp_push_op", "tcp_write_xmit",
		"tcp_transmit_skb", "tcp_v4_rcv", "tcp_rcv_established", "tcp_ack",
		"tcp_data_queue", "tcp_send_ack", "tcp_clean_rtx_queue", "tcp_rtt_estimator",
		"tcp_v4_do_rcv", "tcp_prequeue_process", "tcp_rcv_space_adjust",
		"tcp_event_data_recv", "tcp_current_mss", "tcp_init_tso_segs",
		"tcp_v4_connect", "tcp_connect_op", "tcp_close_op", "tcp_fin_op",
		"inet_csk_accept", "tcp_check_req", "tcp_v4_syn_recv_sock",
		"tcp_parse_options", "tcp_urg_op", "tcp_cwnd_validate",
	},
	SubIPv4: {
		"ip_queue_xmit", "ip_output", "ip_finish_output", "ip_local_out_op",
		"ip_rcv", "ip_rcv_finish", "ip_local_deliver", "ip_route_input",
		"ip_route_output_flow", "__ip_route_output_key", "rt_hash_op",
		"ip_fragment_op", "inet_sendmsg", "inet_recvmsg", "ip_cmsg_recv_op",
	},
	SubSocket: {
		"sys_socketcall_op", "sock_sendmsg", "sock_recvmsg", "sockfd_lookup_light",
		"sock_alloc_fd", "sock_map_fd", "sock_create_op", "inet_create_op",
		"sys_connect_op", "sys_accept_op", "sys_bind_op", "sys_listen_op",
		"sock_poll", "sock_close_op", "sock_release", "sock_wfree", "sock_rfree",
		"sk_stream_wait_memory", "release_sock", "lock_sock_nested",
		"sk_reset_timer", "sock_def_readable", "unix_stream_sendmsg",
		"unix_stream_recvmsg", "unix_write_space", "unix_stream_connect",
		"unix_accept_op", "scm_send_op", "scm_recv_op",
	},
	SubSkbuff: {
		"alloc_skb", "__alloc_skb", "kfree_skb", "__kfree_skb", "skb_clone",
		"skb_copy_datagram_iovec", "skb_copy_bits", "pskb_expand_head",
		"skb_put_op", "skb_pull_op", "skb_push_op", "skb_release_data",
		"skb_queue_tail_op", "skb_dequeue_op", "sock_alloc_send_pskb",
		"skb_checksum", "csum_partial_copy_generic_op",
	},
	SubNAPI: {
		"napi_schedule_op", "__napi_schedule", "napi_complete_op",
		"napi_gro_receive", "dev_gro_receive", "napi_gro_flush",
		"gro_pull_from_frag0", "skb_gro_receive", "inet_gro_receive",
		"tcp_gro_receive", "napi_get_frags", "lro_receive_skb_op",
		"lro_flush_all_op",
	},
	SubIRQ: {
		"do_IRQ", "handle_irq_event", "handle_edge_irq", "irq_enter",
		"irq_exit", "ack_apic_edge", "native_apic_mem_write", "handle_fasteoi_irq",
		"note_interrupt", "__do_softirq_wakeup",
	},
	SubSoftirq: {
		"do_softirq", "__do_softirq", "raise_softirq", "raise_softirq_irqoff",
		"local_bh_enable_op", "local_bh_disable_op", "ksoftirqd_op",
		"tasklet_action", "run_timer_softirq",
	},
	SubTimer: {
		"hrtimer_interrupt", "hrtimer_start_op", "hrtimer_cancel_op", "mod_timer",
		"del_timer", "add_timer_on_op", "run_local_timers", "update_process_times",
		"tick_sched_timer", "ktime_get", "getnstimeofday", "do_gettimeofday_op",
		"clockevents_program_event", "tick_program_event",
	},
	SubLocking: {
		"_spin_lock", "_spin_unlock", "_spin_lock_irqsave", "_spin_unlock_irqrestore",
		"_spin_lock_bh", "_spin_unlock_bh", "_read_lock", "_read_unlock",
		"_write_lock", "_write_unlock", "mutex_lock", "mutex_unlock",
		"__mutex_lock_slowpath", "down_read", "up_read", "down_write", "up_write",
		"__down_read_op", "rwsem_wake_op", "atomic_dec_and_lock_op",
	},
	SubSignal: {
		"sys_rt_sigaction_op", "do_sigaction", "sys_rt_sigprocmask_op",
		"get_signal_to_deliver", "dequeue_signal", "send_signal", "__send_signal",
		"complete_signal", "signal_wake_up", "do_notify_resume", "handle_signal",
		"setup_rt_frame", "sys_rt_sigreturn_op", "recalc_sigpending", "sigprocmask_op",
		"force_sig_info", "specific_send_sig_info",
	},
	SubPipe: {
		"pipe_read", "pipe_write", "pipe_poll", "pipe_release_op", "do_pipe_flags",
		"create_write_pipe", "create_read_pipe", "pipe_wait", "pipe_iov_copy_from_user",
		"pipe_iov_copy_to_user", "anon_pipe_buf_release",
	},
	SubSelectPoll: {
		"sys_select_op", "core_sys_select", "do_select", "poll_freewait",
		"poll_initwait", "__pollwait", "select_estimate_accuracy",
		"max_select_fd", "poll_select_copy_remaining", "sys_poll_op", "do_sys_poll",
		"sys_epoll_wait_op", "ep_poll_op",
	},
	SubIPC: {
		"sys_semop_op", "sys_semtimedop_op", "do_semtimedop", "sem_lock_op",
		"try_atomic_semop", "update_queue_op", "ipc_lock_op", "ipcperms_op",
		"sys_shmget_op", "sys_msgsnd_op", "sys_msgrcv_op", "fcntl_setlk",
		"fcntl_getlk", "posix_lock_file", "locks_alloc_lock", "locks_free_lock",
		"flock_lock_file_wait_op",
	},
	SubForkExec: {
		"do_fork", "copy_process", "dup_mm", "dup_task_struct", "alloc_pid",
		"copy_files", "copy_fs_op", "copy_sighand", "copy_signal_op",
		"wake_up_new_task", "do_execve", "search_binary_handler",
		"load_elf_binary", "flush_old_exec", "setup_arg_pages", "copy_strings",
		"open_exec", "do_exit", "exit_mm", "exit_files", "exit_notify",
		"release_task", "wait_task_zombie", "sys_wait4_op", "do_wait",
		"mm_release", "put_task_struct_op", "free_task_op",
	},
	SubCrypto: {
		"crypto_alloc_base_op", "crypto_aes_encrypt_op", "crypto_aes_decrypt_op",
		"sha1_update_op", "sha1_final_op", "md5_update_op", "crypto_cbc_encrypt_op",
		"crypto_cbc_decrypt_op", "crypto_hash_update_op", "scatterwalk_copychunks_op",
	},
	SubWorkqueue: {
		"queue_work", "queue_work_on_op", "__queue_work", "worker_thread_op",
		"run_workqueue", "insert_work", "flush_workqueue_op", "delayed_work_timer_fn",
		"schedule_work_op",
	},
	SubTTY: {
		"tty_read_op", "tty_write_op", "n_tty_read_op", "n_tty_write_op",
		"tty_insert_flip_string_op", "pty_write_op", "tty_ldisc_ref_op",
		"tty_poll_op",
	},
	SubDMA: {
		"dma_map_single_op", "dma_unmap_single_op", "dma_map_page_op",
		"dma_unmap_page_op", "swiotlb_map_single_op", "dma_sync_single_op",
	},
	SubDebugFS: {
		"debugfs_create_file_op", "debugfs_read_op", "debugfs_write_op",
		"simple_read_from_buffer_op", "simple_attr_read_op", "full_proxy_read_op",
	},
	SubKmod: {
		"load_module_op", "sys_init_module_op", "sys_delete_module_op",
		"module_put_op", "try_module_get_op", "resolve_symbol_op",
	},
	SubMisc: {
		"copy_to_user_op", "copy_from_user_op", "strncpy_from_user_op",
		"memset_op", "memcpy_op", "get_user_op", "put_user_op",
		"audit_syscall_entry_op", "audit_syscall_exit_op", "syscall_trace_enter",
		"syscall_trace_leave", "system_call_entry", "system_call_exit",
		"ret_from_fork_op", "native_set_pte_at_op", "prof_tick_op",
		"current_kernel_time_op", "capable_op", "security_file_permission_op",
	},
}

// coldCounts controls the size of the generated cold tail per subsystem; the
// totals are chosen so the full table lands near the paper's 3815 functions.
var coldCounts = map[Subsystem]int{
	SubSched: 120, SubMM: 230, SubSlab: 90, SubPageCache: 110, SubPageFault: 60,
	SubVFS: 300, SubExt3: 230, SubBlock: 180, SubNetCore: 230, SubTCP: 200,
	SubIPv4: 170, SubSocket: 130, SubSkbuff: 80, SubNAPI: 40, SubIRQ: 80,
	SubSoftirq: 40, SubTimer: 100, SubLocking: 60, SubSignal: 80, SubPipe: 30,
	SubSelectPoll: 40, SubIPC: 90, SubForkExec: 130, SubCrypto: 120,
	SubWorkqueue: 40, SubTTY: 90, SubDMA: 40, SubDebugFS: 30, SubKmod: 50,
	SubMisc: 129,
}

// SymbolTable is the immutable table of core-kernel functions. It induces
// the orthonormal basis of the signature space: dimension i of every
// signature corresponds to Symbols()[i].
type SymbolTable struct {
	symbols []Symbol
	byName  map[string]FuncID
	byAddr  map[uint64]FuncID
}

// NewSymbolTable builds the deterministic core-kernel symbol table. Two
// calls always produce identical tables (same names, same addresses), which
// is what makes signatures comparable across runs.
func NewSymbolTable() *SymbolTable {
	st := &SymbolTable{
		byName: make(map[string]FuncID),
		byAddr: make(map[uint64]FuncID),
	}
	subs := make([]Subsystem, 0, numSubsystems)
	for s := range subsystemNames {
		subs = append(subs, s)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })

	addr := textBase
	add := func(name string, sub Subsystem) {
		id := FuncID(len(st.symbols))
		st.symbols = append(st.symbols, Symbol{ID: id, Name: name, Addr: addr, Subsystem: sub})
		st.byName[name] = id
		st.byAddr[addr] = id
		// Function sizes vary; keep 16-byte alignment like the real text
		// segment. The stride is deterministic in the symbol index.
		addr += 16 * (4 + uint64(len(name))%7)
	}
	for _, sub := range subs {
		for _, name := range hotFunctions[sub] {
			add(name, sub)
		}
		for i := 0; i < coldCounts[sub]; i++ {
			add(fmt.Sprintf("__%s_aux_%d", sub.String(), i), sub)
		}
	}
	return st
}

// Len returns the number of core-kernel functions (the signature dimension).
func (st *SymbolTable) Len() int { return len(st.symbols) }

// Symbols returns the symbol slice indexed by FuncID. Callers must not
// mutate it.
func (st *SymbolTable) Symbols() []Symbol { return st.symbols }

// Symbol returns the symbol for id.
func (st *SymbolTable) Symbol(id FuncID) (Symbol, error) {
	if id < 0 || int(id) >= len(st.symbols) {
		return Symbol{}, fmt.Errorf("kernel: invalid FuncID %d (table size %d)", id, len(st.symbols))
	}
	return st.symbols[id], nil
}

// Lookup resolves a function name to its FuncID.
func (st *SymbolTable) Lookup(name string) (FuncID, error) {
	id, ok := st.byName[name]
	if !ok {
		return InvalidFunc, fmt.Errorf("kernel: unknown function %q", name)
	}
	return id, nil
}

// LookupAddr resolves a start address to its FuncID, the paper's identifier.
func (st *SymbolTable) LookupAddr(addr uint64) (FuncID, error) {
	id, ok := st.byAddr[addr]
	if !ok {
		return InvalidFunc, fmt.Errorf("kernel: no function at %#x", addr)
	}
	return id, nil
}

// Names returns the function names indexed by FuncID. The slice is freshly
// allocated.
func (st *SymbolTable) Names() []string {
	names := make([]string, len(st.symbols))
	for i, s := range st.symbols {
		names[i] = s.Name
	}
	return names
}
