-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'thresh_count'
-- data path: 5 nodes (3 soft, 2 hard), 1 pipeline stages
-- netlist: 8 cells, 8 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp_node1 is
  port (
    A0 : in signed(11 downto 0);
    t : in signed(11 downto 0);
    t3_out : out unsigned(0 downto 0)
  );
end entity thresh_count_dp_node1;

architecture rtl of thresh_count_dp_node1 is
  signal t3 : unsigned(0 downto 0);
begin
  t3 <= "1" when resize(A0, 13) > resize(t, 13) else "0";
  t3_out <= t3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp_node2 is
  port (
    cnt_reg : in unsigned(7 downto 0);
    t6_out : out unsigned(7 downto 0)
  );
end entity thresh_count_dp_node2;

architecture rtl of thresh_count_dp_node2 is
  signal t5 : unsigned(8 downto 0);
  signal t6 : unsigned(7 downto 0);
begin
  t5 <= resize(cnt_reg, 9) + to_unsigned(1, 9);
  t6 <= t5(7 downto 0);
  t6_out <= t6;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp_mux_bb3 is
  port (
    n6_pipe : in unsigned(0 downto 0);
    cnt_prev_pipe : in unsigned(7 downto 0);
    t6 : in unsigned(7 downto 0);
    cnt_fb_2_out : out unsigned(7 downto 0)
  );
end entity thresh_count_dp_mux_bb3;

architecture rtl of thresh_count_dp_mux_bb3 is
  signal cnt_fb_2 : unsigned(7 downto 0);
begin
  cnt_fb_2 <= t6 when n6_pipe /= 0 else cnt_prev_pipe;
  cnt_fb_2_out <= cnt_fb_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp_node4 is
end entity thresh_count_dp_node4;

architecture rtl of thresh_count_dp_node4 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp_pipe_bb3 is
  port (
    cnt_reg : in unsigned(7 downto 0);
    t3 : in unsigned(0 downto 0);
    n6_pipe_out : out unsigned(0 downto 0);
    cnt_prev_pipe_out : out unsigned(7 downto 0)
  );
end entity thresh_count_dp_pipe_bb3;

architecture rtl of thresh_count_dp_pipe_bb3 is
  signal n6_pipe : unsigned(0 downto 0);
  signal cnt_prev_pipe : unsigned(7 downto 0);
begin
  n6_pipe <= t3;
  cnt_prev_pipe <= cnt_reg;
  n6_pipe_out <= n6_pipe;
  cnt_prev_pipe_out <= cnt_prev_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity thresh_count_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    valid : in std_logic;
    A0 : in signed(11 downto 0);
    t : in signed(11 downto 0);
    n : out unsigned(7 downto 0)
  );
end entity thresh_count_dp;

architecture rtl of thresh_count_dp is
  signal t3 : unsigned(0 downto 0);
  signal n6_pipe : unsigned(0 downto 0);
  signal cnt_prev_pipe : unsigned(7 downto 0);
  signal t6 : unsigned(7 downto 0);
  signal cnt_fb_2 : unsigned(7 downto 0);
  signal n3_valid : unsigned(0 downto 0);
  signal cnt_reg : unsigned(7 downto 0) := (others => '0');
begin
  n3_valid <= "1" when valid = '1' else "0";
  u_node1 : entity work.thresh_count_dp_node1
    port map (A0 => A0, t => t, t3_out => t3);
  u_node2 : entity work.thresh_count_dp_node2
    port map (cnt_reg => cnt_reg, t6_out => t6);
  u_mux_bb3 : entity work.thresh_count_dp_mux_bb3
    port map (n6_pipe => n6_pipe, cnt_prev_pipe => cnt_prev_pipe, t6 => t6, cnt_fb_2_out => cnt_fb_2);
  u_node4 : entity work.thresh_count_dp_node4;
  u_pipe_bb3 : entity work.thresh_count_dp_pipe_bb3
    port map (cnt_reg => cnt_reg, t3 => t3, n6_pipe_out => n6_pipe, cnt_prev_pipe_out => cnt_prev_pipe);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        if n3_valid /= 0 then
          cnt_reg <= cnt_fb_2;
        end if;
      end if;
    end if;
  end process;
  n <= cnt_fb_2;
end architecture rtl;
