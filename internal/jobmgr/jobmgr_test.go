package jobmgr

import "cn/internal/msg"

func noSend(string, *msg.Message) error { return nil }
